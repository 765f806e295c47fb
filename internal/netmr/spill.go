package netmr

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
	"unsafe"
)

// Out-of-core halves of the shuffle, and the merge both halves feed.
// The map-side interStore spills whole map-task partition sets to
// per-run temp files when its byte budget is exceeded. The reduce side
// holds the sections it gathered as bytes in a spillFolder that, over
// budget, merges them into a sorted run on disk; the sections its own
// store spilled it does not gather at all, it streams them from where
// they lie. Either way the reducer's output comes from one loser-tree
// merge by (key, ascending map task) over whatever it has (resident
// sections, streamed ones, runs), so per key the values are folded in the
// same order at every budget and the job output stays byte-identical.
// Spill files and run files share one block format, one writer and one
// reader; every block is checksummed (CRC-32C, the frames' table) and
// checked when read back, before a record of it is used.

// spillFile is one map task's partition set on disk: the records of its
// non-empty sections in partition order, in the blocks blockWriter frames.
// The index stays in memory, so a fetch or a merge reads exactly one
// section back.
type spillFile struct {
	f    *os.File
	secs []spillSection // per partition
}

// spillSection locates one section's blocks in a spill file.
type spillSection struct {
	off, n int64  // on-disk extent; n is 0 when the task emitted nothing into the partition
	count  uint64 // records: with raw, what rebuilds the section's count prefix and size
	raw    int64  // the section's own length
}

// writeSpillFile flushes parts (a task's partition set, partition count
// reducers) to a new file under dir and returns the handle and the bytes
// that hit disk. The sections' own bytes are checksummed and written;
// nothing is copied first.
func writeSpillFile(dir string, task int, parts []partitionPartial, reducers int) (*spillFile, int64, error) {
	f, err := os.CreateTemp(dir, fmt.Sprintf("task-%d-*.spill", task))
	if err != nil {
		return nil, 0, fmt.Errorf("netmr: spill create: %w", err)
	}
	sf := &spillFile{f: f, secs: make([]spillSection, reducers)}
	w := blockWriter{w: bufio.NewWriter(f)}
	for _, part := range parts {
		if part.ID < 0 || part.ID >= reducers || len(part.Partial) == 0 {
			continue // ids are validated upstream; never index out of the section table
		}
		c := part.Partial.cursor()
		sec := spillSection{off: w.written, count: c.left, raw: int64(len(part.Partial))}
		for start := c.r.off; c.left > 0 && err == nil; {
			if c.next(); c.r.off-start >= spillBlockSize || c.left == 0 {
				blk := c.r.s[start:c.r.off]
				err = w.block(unsafe.Slice(unsafe.StringData(blk), len(blk)))
				start = c.r.off
			}
		}
		if err != nil {
			break
		}
		sec.n = w.written - sec.off
		sf.secs[part.ID] = sec
	}
	if err == nil {
		err = w.w.Flush()
	}
	if err != nil {
		sf.remove()
		return nil, 0, fmt.Errorf("netmr: spill write: %w", err)
	}
	return sf, w.written, nil
}

// blocks opens a reader over one partition's section; nil when the task
// emitted nothing into it.
func (sf *spillFile) blocks(partition int) *blockReader {
	if partition < 0 || partition >= len(sf.secs) || sf.secs[partition].n == 0 {
		return nil
	}
	sec := sf.secs[partition]
	return &blockReader{f: sf.f, off: sec.off, end: sec.off + sec.n}
}

// section reads one partition's section back whole, undecoded (empty
// when the task emitted nothing into it): its verified blocks behind the
// count prefix. Bytes that fail their checksum are an error, never a
// section.
func (sf *spillFile) section(partition int) (section, error) {
	r := sf.blocks(partition)
	if r == nil {
		return "", nil
	}
	sec := sf.secs[partition]
	buf := binary.AppendUvarint(make([]byte, 0, sec.raw), sec.count)
	for r.off < r.end {
		var err error
		if buf, err = r.next(buf); err != nil {
			return "", err
		}
	}
	if int64(len(buf)) != sec.raw {
		return "", fmt.Errorf("netmr: spill read: section %d of %s is %d bytes, want %d", partition, filepath.Base(sf.f.Name()), len(buf), sec.raw)
	}
	return section(unsafe.String(&buf[0], len(buf))), nil
}

// remove closes and deletes the backing file.
func (sf *spillFile) remove() { removeFile(sf.f) }

func removeFile(f *os.File) {
	_ = f.Close()
	_ = os.Remove(f.Name())
}

// spillBlockSize is the byte granularity spill files and run files
// are framed and checksummed at: big enough to amortize block headers,
// small enough to keep the read-back streaming.
const spillBlockSize = 64 << 10

// blockHeaderMax bounds a block header: the length uvarint, the checksum.
const blockHeaderMax = binary.MaxVarintLen64 + 4

// blockWriter is the one writer of spill files and run files. Either is a
// key-sorted record sequence
//
//	(uvarint(len) key  [varint(task)]  float64le)*
//
// (a run's records carry their map task, a spilled section's all belong
// to one) cut after a whole record into blocks of at least spillBlockSize
// bytes, each framed as uvarint(length) ‖ crc32c(block, 4 B LE) ‖ block.
type blockWriter struct {
	w       *bufio.Writer
	written int64 // bytes that hit disk
}

// block frames one block onto the file.
func (bw *blockWriter) block(blk []byte) error {
	var hdr [blockHeaderMax]byte
	n := binary.PutUvarint(hdr[:], uint64(len(blk)))
	binary.LittleEndian.PutUint32(hdr[n:], crc32.Checksum(blk, crcTable))
	n += 4
	bw.written += int64(n + len(blk))
	_, err := bw.w.Write(hdr[:n])
	if err == nil {
		_, err = bw.w.Write(blk)
	}
	return err
}

// blockReader is the one reader: it streams the blocks in [off, end) of f
// back by ReadAt, so it needs no descriptor or file position of its own
// and never holds more than one block resident. f is a run file, or the
// store's handle on a spill file, which the store may close at any time:
// that fails the next read, it never yields another file's bytes.
type blockReader struct {
	f        *os.File
	off, end int64
}

// next appends the next block's records to dst, growing it by exactly
// the block when it has no room, and returns it; past the last block it
// returns dst as it came. Truncation, a header that lies about a length
// and a failed checksum are errors: no byte is handed on unverified.
func (b *blockReader) next(dst []byte) ([]byte, error) {
	if b.off >= b.end {
		return dst, nil
	}
	var hdr [blockHeaderMax]byte
	h := hdr[:min(int64(len(hdr)), b.end-b.off)]
	if _, err := b.f.ReadAt(h, b.off); err != nil {
		return nil, fmt.Errorf("netmr: spill block header: %w", err)
	}
	rawLen, n1 := binary.Uvarint(h)
	n := n1 + 4 // the header's length, once the length parsed
	// A block is stored as it is, so the extent left bounds what a header
	// can make this allocate.
	if n1 <= 0 || n > len(h) || rawLen == 0 || rawLen > uint64(b.end-b.off)-uint64(n) {
		return nil, fmt.Errorf("netmr: spill block header of %s is corrupt (%d bytes declared, %d left)", filepath.Base(b.f.Name()), rawLen, b.end-b.off)
	}
	at := len(dst)
	dst = slices.Grow(dst, int(rawLen))[:at+int(rawLen)]
	blk := dst[at:]
	if _, err := b.f.ReadAt(blk, b.off+int64(n)); err != nil {
		return nil, fmt.Errorf("netmr: spill block body of %s: %w", filepath.Base(b.f.Name()), err)
	}
	if crc32.Checksum(blk, crcTable) != binary.LittleEndian.Uint32(h[n-4:]) {
		return nil, fmt.Errorf("netmr: spill block of %s failed its checksum", filepath.Base(b.f.Name()))
	}
	b.off += int64(n) + int64(rawLen)
	return dst, nil
}

// mergeSource is one sorted input of the reduce-side merge with its
// current head record: a resident section; a section streamed from the
// store's spill file, like it all of one map task; or a spilled run,
// whose records each carry theirs.
type mergeSource struct {
	r      frameReader  // the resident section, or the current block
	left   uint64       // resident section: records not yet read
	rest   []section    // resident: the sections that follow it (a reduce partition's later chunks)
	blocks *blockReader // nil for a resident section
	tagged bool         // a run: every record names its map task
	live   bool         // key/task/val hold a record

	key    string
	prefix uint64 // keyPrefix(key): what less compares first
	task   int
	val    float64
}

// sectionSource walks sec as one input: the cursor starts on it, so no
// slice is allocated to hold it.
func sectionSource(task int, sec section) *mergeSource {
	c := sec.cursor()
	return &mergeSource{r: c.r, left: c.left, task: task}
}

// chunksSource walks secs, key-sorted one after the other, as one input.
func chunksSource(task int, secs []section) *mergeSource {
	return &mergeSource{rest: secs, task: task}
}

// advance loads the next record into the head; live turns false at the
// end of the input. Each block is read into a buffer of its own, which
// its keys alias: a key the fold still holds outlives the block's turn.
func (s *mergeSource) advance() error {
	s.live = false
	if s.blocks == nil {
		for s.left == 0 {
			if len(s.rest) == 0 {
				return nil
			}
			c := s.rest[0].cursor()
			s.r, s.left, s.rest = c.r, c.left, s.rest[1:]
		}
		s.left--
	} else if s.r.off >= len(s.r.s) {
		blk, err := s.blocks.next(nil)
		if err != nil || len(blk) == 0 {
			return err
		}
		s.r = frameReader{s: unsafe.String(&blk[0], len(blk))}
	}
	var err error
	if s.key, err = s.r.string(); err != nil {
		return err
	}
	s.prefix = keyPrefix(s.key)
	if s.tagged {
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
// over the key's collected values — adding each result to out: the
// semantics of the tests' serialMerge oracle, with the output born as a
// stream of sections instead of a map.
func mergeFold(job Job, srcs []*mergeSource, out *foldOut) error {
	var key string
	var acc float64
	var vals []float64
	have := false
	finish := func() error {
		if !have {
			return nil
		}
		if job.Combine == nil {
			acc, vals = job.Reduce(key, vals), vals[:0]
		}
		return out.add(key, acc)
	}
	err := mergeSources(srcs, func(s *mergeSource) error {
		switch {
		case !have || s.key != key:
			if err := finish(); err != nil {
				return err
			}
			key, acc, have = s.key, s.val, true
		case job.Combine != nil:
			acc = job.Combine(acc, s.val)
		}
		if job.Combine == nil {
			vals = append(vals, s.val)
		}
		out.in++
		return nil
	})
	if err != nil {
		return err
	}
	return finish()
}

// chunkBytes is the most a chunk of a reduce task's output holds (a pair
// larger than that travels alone). Boundaries depend on the output bytes
// alone, so every launch of a partition cuts the same chunks.
const chunkBytes = 1 << 20

// foldOut is a fold's output on its way to the master: the pairs collect
// in b, and before a pair would take them past chunkBytes, cut sends them
// as chunk k and b starts over in the same buffer, so the master takes in
// chunk k while the fold produces k+1. What b holds when the fold ends is
// the last chunk, which rides the result frame. Without a cut the output
// stays whole in b.
type foldOut struct {
	b   sectionBuilder
	cut func(k int, chunk section, projected int64) error

	k       int   // chunks cut by the current fold
	in      int64 // records merged so far
	inBytes int64 // bytes the fold merges in all
}

// start readies the output for a fold over inBytes of gathered sections,
// dropping whatever an earlier, failed fold left. A fold only ever drops
// bytes, so a small one gets a buffer of its own size, not a chunk's.
func (o *foldOut) start(inBytes int64) {
	o.b.reset(int(min(inBytes, chunkBytes)))
	o.k, o.in, o.inBytes = 0, 0, inBytes
}

// add appends one folded pair, first cutting a chunk if the pair would
// take the pairs held past chunkBytes. The first chunk carries the fold's
// projected output bytes: the input's bytes scaled by the pairs out per
// record in so far.
func (o *foldOut) add(key string, v float64) error {
	if o.cut != nil && o.b.count > 0 && len(o.b.buf)+len(key)+8 > chunkBytes {
		var projected int64
		if o.k == 0 {
			projected = o.inBytes * int64(o.b.count) / max(o.in, 1)
		}
		if err := o.cut(o.k, o.b.section(), projected); err != nil {
			return err
		}
		o.k++
		o.b.reset(chunkBytes)
	}
	o.b.add(key, v)
	return nil
}

// spillFolder holds what one reduce task has gathered, under a byte
// budget. Sections that arrived as bytes are held; over the budget they
// are merged into one sorted run under the run's scratch dir and dropped.
// Sections the worker's own store holds on disk join as streams: like a
// run they cost one resident block each, so they sit outside the budget
// and are never flushed. fold merges all three into the partition's final
// section.
type spillFolder struct {
	budget       int64 // 0: never spill
	baseDir, run string

	mem    int64              // bytes of the held sections
	onDisk int64              // bytes of the sections streamed, or already merged into runs
	held   []partitionPartial // ID is the map task id
	disk   []*mergeSource     // streamed sections and runs
	runs   []*os.File         // the runs' files, removed on discard

	spillRuns    int
	spilledBytes int64         // bytes that hit disk
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

// stream adds a section the fold will read from the store's spill file.
func (f *spillFolder) stream(src *mergeSource) {
	f.disk = append(f.disk, src)
	f.onDisk += src.blocks.end - src.blocks.off
}

// heldSources opens a merge source over every held section.
func (f *spillFolder) heldSources() []*mergeSource {
	srcs := make([]*mergeSource, 0, len(f.held)+len(f.disk))
	for _, h := range f.held {
		srcs = append(srcs, sectionSource(h.ID, h.Partial))
	}
	return srcs
}

// flush merges the held sections into one run file and drops them.
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
	w := blockWriter{w: bufio.NewWriter(file)}
	var blk []byte
	err = mergeSources(f.heldSources(), func(s *mergeSource) error {
		blk = appendString(blk, s.key)
		blk = binary.AppendVarint(blk, int64(s.task))
		blk = binary.LittleEndian.AppendUint64(blk, math.Float64bits(s.val))
		if len(blk) < spillBlockSize {
			return nil
		}
		err := w.block(blk)
		blk = blk[:0]
		return err
	})
	if err == nil && len(blk) > 0 {
		err = w.block(blk)
	}
	if err == nil {
		err = w.w.Flush()
	}
	if err != nil {
		removeFile(file)
		return fmt.Errorf("netmr: spill run write: %w", err)
	}
	f.runs = append(f.runs, file)
	f.disk = append(f.disk, &mergeSource{blocks: &blockReader{f: file, end: w.written}, tagged: true})
	f.spillRuns++
	f.spilledBytes += w.written
	f.onDisk += f.mem
	clear(f.held)
	f.held, f.mem = f.held[:0], 0
	return nil
}

// fold merges the held sections, the streamed ones and every spilled run
// into out, streaming the per-key fold off the loser tree. out starts
// over, chunk count included, so a fold that runs again after a failed
// one sends its chunks again from the first; the master checks them
// against the ones it took. merged reports whether disk runs took part
// (the "mergeruns" span). The folder comes back empty, the runs' files
// removed, ready to gather again.
func (f *spillFolder) fold(job Job, out *foldOut) (merged bool, err error) {
	defer f.discard()
	out.start(f.mem + f.onDisk)
	return len(f.runs) > 0, mergeFold(job, append(f.heldSources(), f.disk...), out)
}

// discard releases every spilled run file and everything gathered.
func (f *spillFolder) discard() {
	for _, file := range f.runs {
		removeFile(file)
	}
	f.runs, f.disk, f.held, f.mem, f.onDisk = nil, nil, nil, 0, 0
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
