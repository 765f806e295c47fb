package netmr

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Out-of-core halves of the shuffle, and the merge both halves feed.
// The map-side interStore spills whole map-task partition sets to
// per-run temp files when its byte budget is exceeded; the sections go
// to disk and come back as the bytes they are. The reduce side holds
// the gathered sections in a spillFolder that, over budget, merges them
// into a sorted run on disk. Either way the reducer's output comes from
// one loser-tree merge by (key, ascending map task) over whatever it
// holds — sections, runs, or both — so per key the values are folded in
// the same order at every budget and the job output stays byte-identical.
// Every byte written here is checksummed (CRC-32C, the frames' table)
// and checked when read back.

// spillFile is one map task's partition set on disk: its non-empty
// sections in partition order, LZ-compressed where lzPack says it pays.
// The index stays in memory so a fetch reads exactly one section back.
type spillFile struct {
	f       *os.File
	offsets []int64  // per partition: section start; -1 when the partition is empty
	lengths []int64  // on-disk section length
	rawLens []int64  // uncompressed length; 0 means the section is stored raw
	sums    []uint32 // CRC-32C of the uncompressed section
}

// writeSpillFile flushes parts (a task's partition set, partition count
// reducers) to a new file under dir and returns the handle, the bytes
// that hit disk, and the bytes compression saved.
func writeSpillFile(dir string, task int, parts []partitionPartial, reducers int) (*spillFile, int64, int64, error) {
	f, err := os.CreateTemp(dir, fmt.Sprintf("task-%d-*.spill", task))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("netmr: spill create: %w", err)
	}
	sf := &spillFile{f: f, offsets: make([]int64, reducers), lengths: make([]int64, reducers),
		rawLens: make([]int64, reducers), sums: make([]uint32, reducers)}
	for p := range sf.offsets {
		sf.offsets[p] = -1
	}
	w := bufio.NewWriter(f)
	var off, saved int64
	var raw, packed []byte
	for _, part := range parts {
		if part.ID < 0 || part.ID >= reducers || len(part.Partial) == 0 {
			continue // ids are validated upstream; never index out of the section table
		}
		raw = append(raw[:0], part.Partial...)
		payload := raw
		var ok bool
		if packed, ok = lzPack(packed[:0], raw); ok {
			payload = packed
			sf.rawLens[part.ID] = int64(len(raw))
			saved += int64(len(raw) - len(packed))
		}
		if _, err := w.Write(payload); err != nil {
			sf.remove()
			return nil, 0, 0, fmt.Errorf("netmr: spill write: %w", err)
		}
		sf.sums[part.ID] = crc32.Checksum(raw, crcTable)
		sf.offsets[part.ID] = off
		sf.lengths[part.ID] = int64(len(payload))
		off += int64(len(payload))
	}
	if err := w.Flush(); err != nil {
		sf.remove()
		return nil, 0, 0, fmt.Errorf("netmr: spill write: %w", err)
	}
	return sf, off, saved, nil
}

// section reads one partition's section back, undecoded (empty when the
// task emitted nothing into it). Bytes that fail their checksum are an
// error, never a section.
func (sf *spillFile) section(partition int) (section, error) {
	if partition < 0 || partition >= len(sf.offsets) || sf.offsets[partition] < 0 {
		return "", nil
	}
	buf := make([]byte, sf.lengths[partition])
	if _, err := sf.f.ReadAt(buf, sf.offsets[partition]); err != nil {
		return "", fmt.Errorf("netmr: spill read: %w", err)
	}
	if raw := sf.rawLens[partition]; raw > 0 {
		dec, err := lzDecompress(make([]byte, 0, raw), buf, int(raw))
		if err != nil {
			return "", fmt.Errorf("netmr: spill read: %w", err)
		}
		buf = dec
	}
	if crc32.Checksum(buf, crcTable) != sf.sums[partition] {
		return "", fmt.Errorf("netmr: spill read: section %d of %s failed its checksum", partition, filepath.Base(sf.f.Name()))
	}
	return section(buf), nil
}

// remove closes and deletes the backing file.
func (sf *spillFile) remove() { removeFile(sf.f) }

func removeFile(f *os.File) {
	_ = f.Close()
	_ = os.Remove(f.Name())
}

// spillBlockSize is the raw-byte granularity reduce-side run files are
// framed, compressed and checksummed at: big enough to amortize block
// headers and give the compressor context, small enough to keep the
// read-back streaming.
const spillBlockSize = 64 << 10

// spillRun streams one reduce-side run file back, block by block. A run
// is the (key, map task)-sorted record sequence
//
//	(uvarint(len) key  varint(task)  float64le)*
//
// cut after a whole record into blocks of at least spillBlockSize raw
// bytes, each framed as flag(1B: 0 raw, 1 compressed) ‖ uvarint(raw
// length) ‖ uvarint(payload length) ‖ crc32c(raw block, 4 B LE) ‖
// payload. Blocks are read one at a time, so a merge never holds more
// than one block of any run resident.
type spillRun struct {
	f   *os.File
	r   *bufio.Reader
	pay []byte // payload scratch, reused across blocks
	blk []byte // decompression scratch
}

// appendRunBlock frames one raw block onto w's buffer, compressed when
// try is set and lzPack says it pays. It reports the bytes written and
// the bytes compression saved.
func appendRunBlock(w *bufio.Writer, blk, scratch []byte, try bool) (written, saved int64, scratchOut []byte, err error) {
	flag, payload := byte(0), blk
	if try {
		var ok bool
		if scratch, ok = lzPack(scratch[:0], blk); ok {
			flag, payload = 1, scratch
		}
	}
	var hdr [1 + 2*binary.MaxVarintLen64 + 4]byte
	hdr[0] = flag
	n := 1 + binary.PutUvarint(hdr[1:], uint64(len(blk)))
	n += binary.PutUvarint(hdr[n:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[n:], crc32.Checksum(blk, crcTable))
	n += 4
	if _, err = w.Write(hdr[:n]); err == nil {
		_, err = w.Write(payload)
	}
	return int64(n + len(payload)), int64(len(blk) - len(payload)), scratch, err
}

// nextBlock returns the next block's records as a string its keys are
// substrings of; "" is the clean end of the run. Truncation or a failed
// checksum inside a block is a hard error.
func (s *spillRun) nextBlock() (string, error) {
	flag, err := s.r.ReadByte()
	if err == io.EOF {
		return "", nil
	}
	var rawLen, payLen uint64
	if err == nil {
		rawLen, err = binary.ReadUvarint(s.r)
	}
	if err == nil {
		payLen, err = binary.ReadUvarint(s.r)
	}
	var sum [4]byte
	if err == nil {
		_, err = io.ReadFull(s.r, sum[:])
	}
	if err != nil {
		return "", fmt.Errorf("netmr: spill run block header: %w", err)
	}
	if rawLen == 0 || rawLen > maxFrameBytes || payLen > maxFrameBytes || flag > 1 || (flag == 0 && rawLen != payLen) {
		return "", fmt.Errorf("netmr: spill run block header is corrupt (flag %d, %d raw, %d stored)", flag, rawLen, payLen)
	}
	s.pay = grown(s.pay, int(payLen))
	if _, err := io.ReadFull(s.r, s.pay); err != nil {
		return "", fmt.Errorf("netmr: spill run block body: %w", err)
	}
	blk := s.pay
	if flag == 1 {
		if blk, err = lzDecompress(s.blk[:0], s.pay, int(rawLen)); err != nil {
			return "", fmt.Errorf("netmr: spill run block: %w", err)
		}
		s.blk = blk
	}
	if uint64(len(blk)) != rawLen || crc32.Checksum(blk, crcTable) != binary.LittleEndian.Uint32(sum[:]) {
		return "", fmt.Errorf("netmr: spill run block of %s failed its checksum", filepath.Base(s.f.Name()))
	}
	return string(blk), nil
}

// mergeSource is one sorted input of the reduce-side merge with its
// current head record: a gathered section, all of whose records belong
// to one map task, or a spilled run, whose records each carry theirs.
type mergeSource struct {
	r    frameReader // the section, or the run's current block
	left uint64      // section: records not yet read
	run  *spillRun   // nil for a section
	live bool        // key/task/val hold a record

	key    string
	prefix uint64 // keyPrefix(key): what less compares first
	task   int
	val    float64
}

func sectionSource(task int, sec section) *mergeSource {
	c := sec.cursor()
	return &mergeSource{r: c.r, left: c.left, task: task}
}

// advance loads the next record into the head; live turns false at the
// end of the input.
func (s *mergeSource) advance() error {
	s.live = false
	if s.run == nil {
		if s.left == 0 {
			return nil
		}
		s.left--
	} else if s.r.off >= len(s.r.s) {
		blk, err := s.run.nextBlock()
		if err != nil || blk == "" {
			return err
		}
		s.r = frameReader{s: blk}
	}
	var err error
	if s.key, err = s.r.string(); err != nil {
		return err
	}
	s.prefix = keyPrefix(s.key)
	if s.run != nil {
		task, err := s.r.varint()
		if err != nil {
			return err
		}
		s.task = int(task)
	}
	if len(s.r.s)-s.r.off < 8 {
		return fmt.Errorf("netmr: truncated merge record at byte %d", s.r.off)
	}
	s.val = math.Float64frombits(u64at(s.r.s, s.r.off))
	s.r.off += 8
	s.live = true
	return nil
}

// loserTree is a k-way tournament merge over sorted sources: tree[1:]
// are the internal nodes, each remembering the loser of its match, and
// tree[0] the overall winner, so replacing a popped head replays log2(k)
// comparisons along one leaf-to-root path instead of a heap's full sift
// — the classic structure for merging many sorted runs.
type loserTree struct {
	srcs []*mergeSource
	tree []int // tree[0]: winner; tree[1:]: per-node losers
}

// newLoserTree primes every source and plays the initial tournament.
// Empty slots (-1) absorb the first contender unopposed, so k adjust
// passes fill the whole tree.
func newLoserTree(srcs []*mergeSource) (*loserTree, error) {
	k := len(srcs)
	lt := &loserTree{srcs: srcs, tree: make([]int, k)}
	for _, s := range srcs {
		if err := s.advance(); err != nil {
			return nil, err
		}
	}
	for i := range lt.tree {
		lt.tree[i] = -1
	}
	for i := 0; i < k; i++ {
		winner := i
		parked := false
		for node := (i + k) / 2; node > 0; node /= 2 {
			if lt.tree[node] < 0 {
				lt.tree[node] = winner // first arrival: wait here for an opponent
				parked = true
				break
			}
			if lt.less(lt.tree[node], winner) {
				winner, lt.tree[node] = lt.tree[node], winner
			}
		}
		if !parked {
			lt.tree[0] = winner
		}
	}
	return lt, nil
}

// less orders two sources by their heads, (key, ascending map task) —
// the order the fold consumes values in, so every key's values arrive
// in map-task order wherever they were held. An exhausted source loses
// to everything, so the winner is a live head while any remain.
func (lt *loserTree) less(a, b int) bool {
	x, y := lt.srcs[a], lt.srcs[b]
	if !x.live || !y.live {
		return x.live
	}
	if x.prefix != y.prefix {
		return x.prefix < y.prefix
	}
	if c := strings.Compare(x.key, y.key); c != 0 {
		return c < 0
	}
	return x.task < y.task
}

// mergeSources calls fn on every record of srcs in (key, map task)
// order; the source passed to fn holds the record as its head.
func mergeSources(srcs []*mergeSource, fn func(*mergeSource) error) error {
	lt, err := newLoserTree(srcs)
	if err != nil || len(srcs) == 0 {
		return err
	}
	k := len(srcs)
	for w := lt.tree[0]; srcs[w].live; w = lt.tree[0] {
		if err := fn(srcs[w]); err != nil {
			return err
		}
		if err := srcs[w].advance(); err != nil {
			return err
		}
		// Replay the refilled leaf against the recorded losers on its path.
		winner := w
		for node := (w + k) / 2; node > 0; node /= 2 {
			if lt.less(lt.tree[node], winner) {
				winner, lt.tree[node] = lt.tree[node], winner
			}
		}
		lt.tree[0] = winner
	}
	return nil
}

// mergeFold merges srcs and streams every key's values, in map-task
// order, through the job's fold — Combine as they arrive, or one Reduce
// over the key's collected values — appending each result to out: the
// same semantics as the master's serialMerge, with the output born as a
// section instead of a map.
func mergeFold(job Job, srcs []*mergeSource, out *sectionBuilder) error {
	var key string
	var acc float64
	var vals []float64
	have := false
	finish := func() {
		if !have {
			return
		}
		if job.Combine == nil {
			acc, vals = job.Reduce(key, vals), vals[:0]
		}
		out.add(key, acc)
	}
	err := mergeSources(srcs, func(s *mergeSource) error {
		switch {
		case !have || s.key != key:
			finish()
			key, acc, have = s.key, s.val, true
		case job.Combine != nil:
			acc = job.Combine(acc, s.val)
		}
		if job.Combine == nil {
			vals = append(vals, s.val)
		}
		return nil
	})
	finish()
	return err
}

// spillFolder holds the sections one reduce task has gathered, under a
// byte budget: over it, the held sections are merged into one sorted
// run under the run's scratch dir and dropped. fold merges the runs and
// whatever is still held into the partition's final section.
type spillFolder struct {
	budget       int64 // 0: never spill
	baseDir, run string

	mem     int64              // bytes of the held sections
	flushed int64              // bytes of the sections already merged into runs
	held    []partitionPartial // ID is the map task id
	runs    []*spillRun

	spillRuns    int
	spilledBytes int64         // bytes that hit disk (post-compression)
	compSaved    int64         // bytes block compression kept off disk
	flushDur     time.Duration // wall time spent writing runs (the "spill" span)
}

func newSpillFolder(budget int64, baseDir, run string) *spillFolder {
	return &spillFolder{budget: budget, baseDir: baseDir, run: run}
}

// add holds one gathered section, spilling everything held as a sorted
// run when the budget is exceeded. A run that cannot be written leaves
// the sections held — correct, just over budget — and stops spilling.
func (f *spillFolder) add(task int, sec section) {
	if len(sec) == 0 {
		return
	}
	f.held = append(f.held, partitionPartial{ID: task, Partial: sec})
	f.mem += int64(len(sec))
	if f.budget > 0 && f.mem > f.budget {
		if err := f.flush(); err != nil {
			workerSpillErrors.Inc()
			f.budget = 0
		}
	}
}

// heldSources opens a merge source over every held section.
func (f *spillFolder) heldSources() []*mergeSource {
	srcs := make([]*mergeSource, 0, len(f.held)+len(f.runs))
	for _, h := range f.held {
		srcs = append(srcs, sectionSource(h.ID, h.Partial))
	}
	return srcs
}

// flush merges the held sections into one block-framed run file and
// drops them.
func (f *spillFolder) flush() (err error) {
	flushStart := time.Now()
	defer func() { f.flushDur += time.Since(flushStart) }()
	dir, err := ensureSpillDir(f.baseDir, f.run)
	if err != nil {
		return err
	}
	file, err := os.CreateTemp(dir, "reduce-run-*.spill")
	if err != nil {
		return fmt.Errorf("netmr: spill run create: %w", err)
	}
	defer func() {
		if err != nil {
			removeFile(file)
			err = fmt.Errorf("netmr: spill run write: %w", err)
		}
	}()
	w := bufio.NewWriter(file)
	var blk, scratch []byte
	var written, saved int64
	// A run's blocks are alike: once one does not compress, the rest of
	// the run is written raw without asking again.
	compress := true
	emit := func() error {
		n, sv, sc, err := appendRunBlock(w, blk, scratch, compress)
		written, saved, scratch, blk = written+n, saved+sv, sc, blk[:0]
		compress = compress && sv > 0
		return err
	}
	err = mergeSources(f.heldSources(), func(s *mergeSource) error {
		blk = appendString(blk, s.key)
		blk = binary.AppendVarint(blk, int64(s.task))
		blk = binary.LittleEndian.AppendUint64(blk, math.Float64bits(s.val))
		if len(blk) >= spillBlockSize {
			return emit()
		}
		return nil
	})
	if err == nil && len(blk) > 0 {
		err = emit()
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		_, err = file.Seek(0, io.SeekStart)
	}
	if err != nil {
		return err
	}
	f.runs = append(f.runs, &spillRun{f: file, r: bufio.NewReader(file)})
	f.spillRuns++
	f.spilledBytes += written
	f.compSaved += saved
	f.flushed += f.mem
	clear(f.held)
	f.held, f.mem = f.held[:0], 0
	return nil
}

// fold merges every spilled run and the held sections into out,
// streaming the per-key fold off the loser tree. out is reset with room
// for everything gathered — a fold only ever drops bytes — up to the one
// frame the result has to fit anyway, so it never grows mid-merge.
// merged reports whether disk runs took part (the "mergeruns" span). The
// runs' files are removed on return.
func (f *spillFolder) fold(job Job, out *sectionBuilder) (merged bool, err error) {
	defer f.discard()
	out.reset(int(min(f.mem+f.flushed, maxFrameBytes)))
	srcs := f.heldSources()
	for _, run := range f.runs {
		srcs = append(srcs, &mergeSource{run: run})
	}
	return len(f.runs) > 0, mergeFold(job, srcs, out)
}

// discard releases every spilled run file and the held sections.
func (f *spillFolder) discard() {
	for _, run := range f.runs {
		removeFile(run.f)
	}
	f.runs, f.held, f.mem, f.flushed = nil, nil, 0, 0
}

// ensureSpillDir creates (or reuses) the per-run scratch directory under
// base, falling back to the OS temp dir when base is empty.
func ensureSpillDir(base, run string) (string, error) {
	if base == "" {
		base = os.TempDir()
	}
	dir := filepath.Join(base, "netmr-spill", sanitizeRun(run))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("netmr: spill dir: %w", err)
	}
	return dir, nil
}

// sanitizeRun maps a run id ("wordcount#3") onto a path-safe directory
// name.
func sanitizeRun(run string) string {
	b := []byte(run)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}
