// Package netmr is a real, network-distributed Split-Merge MapReduce
// runtime: a master listens on TCP, workers connect, the master scatters
// input shards to the workers (the split phase, with barrier
// synchronization), and merges their partial results serially (the merge
// phase) — the execution structure of Fig. 1 running over genuine
// sockets rather than the simulator.
//
// It exists so the library is a usable distributed system and so the
// IPSO phase decomposition (Wp from the parallel map wave, Ws from the
// serial merge, Wo from dispatch) can be measured on real wall clocks.
// Values are restricted to string→float64 pairs so results serialize
// uniformly; that covers counting, summing and histogram workloads.
//
// The master tolerates worker failure: a shard whose worker dies or
// times out is reassigned to another live worker (up to a retry budget),
// the same recovery model as Hadoop's task re-execution.
//
// Two wire codecs coexist. The hello exchange is always line-delimited
// JSON (protocol v1); a worker advertising the "bin" capability is
// switched to the length-prefixed binary framing of codec.go by a
// helloack, cutting the per-frame encode/decode cost that shows up as
// dispatch overhead Wo(n) on real wall clocks. Workers and masters that
// predate the binary codec simply never negotiate it and keep speaking
// JSON.
package netmr

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sort"
	"time"
)

// capBinary, capBinaryExt, capBatch, capPartition, capTrace and
// capReduce are the capability tokens of the hello negotiation: the
// binary codec, its bin2 layout revision (the trailing Partitions/Parts
// frame fields — versioned separately so a new peer talking to a
// previous-version binary peer falls back to the layout that peer
// decodes), multi-shard task batching, worker-side hash-partitioned
// results (the master's helloack then carries the partition count the
// cluster agreed on), distributed tracing (the master stamps a trace
// context onto task frames and the worker ships per-phase span
// summaries back on result frames — a further trailing layout revision
// on binary connections, versioned exactly like bin2 so untraced peers
// keep byte-identical frames), and distributed reduce (the worker
// persists partitioned map output, serves it to peer reducers over
// fetch frames, and accepts reduce tasks — one more trailing layout
// revision carrying the Run/Reducers/Fetch/Bytes/Tasks/Locs fields).
// capComp adds the out-of-core shuffle generation: frame compression
// (a one-byte flag layer on every body, bulk payloads LZ-compressed
// above a threshold), replica placement (the master names a peer on
// task frames, the worker replicates its persisted partitions there
// before mapdone), and the trailing Rep/Spills/Spilled/CompBytes/
// ShuffleMs layout block — versioned exactly like trace and reduce.
// capEarly adds the pipelined shuffle generation: the master may
// dispatch a reduce task before the map barrier (Total > 0 announces
// how many map outputs will eventually exist) and stream later
// map-output locations to the running reducer over morelocs frames;
// replica addresses (Reps) ride the task and morelocs frames so the
// reducer fails over to a replica locally, and the reducer reports how
// often it did (Failovers) — one more trailing layout block, versioned
// exactly like trace/reduce/comp.
const (
	capBinary    = "bin"
	capBinaryExt = "bin2"
	capBatch     = "batch"
	capPartition = "part"
	capTrace     = "trace"
	capReduce    = "reduce"
	capComp      = "comp"
	capEarly     = "early"
)

// workerCaps is what a current worker advertises in its hello.
func workerCaps() []string {
	return []string{capBinary, capBinaryExt, capBatch, capPartition, capTrace, capReduce, capComp, capEarly}
}

// message is the single wire frame: one JSON line in codec v1, one
// length-prefixed binary frame in v2 (codec.go). The field set is
// shared, so the two codecs round-trip the same struct.
type message struct {
	Type       string             `json:"type"`                 // hello | helloack | task | taskbatch | result | presult | error | ping | pong | reducetask | fetch | fetchresult | mapdone
	ID         string             `json:"id,omitempty"`         // hello: worker identity
	Job        string             `json:"job,omitempty"`        // task
	TaskID     int                `json:"task_id,omitempty"`    // task | result | presult | error; reducetask | fetch: reduce partition
	Attempt    int                `json:"attempt,omitempty"`    // task | result | presult: retry ordinal, 0-based
	Records    []string           `json:"records,omitempty"`    // task
	Partial    map[string]float64 `json:"partial,omitempty"`    // result
	Jobs       []string           `json:"jobs,omitempty"`       // hello
	Message    string             `json:"message,omitempty"`    // error
	Caps       []string           `json:"caps,omitempty"`       // hello: offered, helloack: accepted
	Batch      []taskSpec         `json:"batch,omitempty"`      // taskbatch
	Partitions int                `json:"partitions,omitempty"` // helloack: merge partition count when "part" was accepted
	Parts      []partitionPartial `json:"parts,omitempty"`      // presult: per-partition partials; reducetask | fetchresult: per-map-task partials (ID is the map task id)
	Trace      string             `json:"trace,omitempty"`      // task | taskbatch: job trace ID; result | presult: echoed back
	Spans      []spanSummary      `json:"spans,omitempty"`      // result | presult: worker-side phase spans

	// Distributed-reduce fields, carried only on connections that
	// negotiated the "reduce" capability (a fourth trailing layout block
	// on binary frames). The hello/helloack exchange is always JSON, so
	// Fetch and Reducers need no layout versioning there.
	Run      string     `json:"run,omitempty"`      // task | mapdone | reducetask | fetch: run id intermediate output is keyed by
	Reducers int        `json:"reducers,omitempty"` // helloack: reduce partition count when "reduce" was accepted
	Fetch    string     `json:"fetch,omitempty"`    // hello: worker's shuffle listener address
	Bytes    int64      `json:"bytes,omitempty"`    // result (of a reduce task): intermediate bytes fetched over a socket
	Tasks    []int      `json:"tasks,omitempty"`    // fetch: map task ids whose partition slice is wanted
	Locs     []fetchLoc `json:"locs,omitempty"`     // reducetask: where winning map outputs are stored

	// Out-of-core shuffle fields, carried only on connections that
	// negotiated the "comp" capability (a fifth trailing layout block on
	// binary frames, plus the compression flag layer around the body).
	Rep       string   `json:"rep,omitempty"`        // task | taskbatch: peer shuffle addr to replicate to; mapdone: addr actually replicated to
	CompAddrs []string `json:"comp_addrs,omitempty"` // reducetask: shuffle addrs that speak the comp generation (fetch dial hint)
	Spills    int      `json:"spills,omitempty"`     // mapdone | result: spill runs written while producing this output
	Spilled   int64    `json:"spilled,omitempty"`    // mapdone | result: bytes written to spill files
	CompBytes int64    `json:"comp_bytes,omitempty"` // result (of a reduce task): wire bytes saved by frame compression
	ShuffleMs int64    `json:"shuffle_ms,omitempty"` // helloack: shuffle timeout, milliseconds

	// Pipelined-shuffle fields, carried only on connections that
	// negotiated the "early" capability (a sixth trailing layout block on
	// binary frames). Total > 0 on a reducetask marks it an early
	// dispatch: the reducer gathers the initial Locs/Parts, then keeps
	// receiving morelocs frames (same Run/TaskID, incremental Locs/Parts/
	// Reps — or Message "abort") until it has covered Total map tasks.
	Total     int        `json:"total,omitempty"`     // reducetask: map tasks the run will eventually produce (early mode)
	Reps      []fetchLoc `json:"reps,omitempty"`      // reducetask | morelocs: replica shuffle addrs per map task (local failover)
	Failovers int        `json:"failovers,omitempty"` // result (of a reduce task): fetches locally rerouted to a replica

	// partialSec, when non-nil, is Partial already encoded as a section:
	// a reducer's merge writes its output in wire form, and the frame
	// carries those bytes instead of encoding the map. Send side only.
	partialSec []byte
}

// fetchLoc names one worker's shuffle listener and the map tasks whose
// persisted output it holds — the reduce task's treasure map.
type fetchLoc struct {
	Addr  string `json:"addr"`
	Tasks []int  `json:"tasks"`
}

// spanSummary is one worker-side phase interval shipped back piggybacked
// on a result frame: the phase name and its [Start, End) window in
// seconds relative to the moment the worker received the task. The
// master re-bases these onto its own clock when assembling the job
// timeline, so workers need no synchronized clocks — only a monotonic
// one.
type spanSummary struct {
	Phase string  `json:"phase"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// taskSpec is one shard inside a taskbatch frame; the worker answers
// each spec with its own result frame, in order.
type taskSpec struct {
	Job     string   `json:"job"`
	TaskID  int      `json:"task_id"`
	Attempt int      `json:"attempt,omitempty"`
	Records []string `json:"records,omitempty"`
}

// conn wraps a net.Conn with framing and deadlines. It starts in JSON
// mode and is switched to the binary codec by the hello negotiation.
// A conn is used by one goroutine at a time, so its scratch buffers
// need no locking.
type conn struct {
	raw net.Conn
	r   *bufio.Reader
	enc *json.Encoder

	binary bool // codec v2 negotiated for both directions
	binExt bool // bin2 layout (trailing partition fields) negotiated
	trc    bool // trace layout (trailing Trace/Spans fields) negotiated
	red    bool // reduce layout (trailing Run/…/Locs fields) negotiated
	cmp    bool // comp layout (flag layer + trailing Rep/…/ShuffleMs fields) negotiated
	erl    bool // early layout (trailing Total/Reps/Failovers fields) negotiated

	// sniff arms one-shot generation detection on shuffle-server
	// connections: the first body byte of a comp dialer is its
	// compression flag (0x00/0x01), a legacy reduce dialer's is its
	// frame type byte (never below 2 on a shuffle connection), so the
	// server adopts the dialer's generation without a handshake.
	sniff bool

	// lastDecode is the wire-decode cost of the most recent recv,
	// measured only on traced connections: the worker charges it to the
	// task's "decode" span so deserialization overhead is attributed
	// instead of vanishing into RPC time.
	lastDecode time.Duration

	// lastFrameLen is the encoded size of the most recent recv (body
	// bytes in binary mode, line bytes in JSON mode) — what a reducer
	// charges to Stats.ShuffleBytes per fetched frame.
	lastFrameLen int

	// lastRawLen is the decompressed body size of the most recent recv on
	// a comp connection (equal to lastFrameLen-1 for stored bodies);
	// lastRawLen - lastFrameLen is the wire saving frame compression
	// bought, which reducers report as CompBytes.
	lastRawLen int

	keys    []string // sorted-Partial scratch for binary encode
	scratch message  // binary decode target; Records/Batch backing reused
}

func newConn(raw net.Conn) *conn {
	return &conn{raw: raw, r: bufio.NewReader(raw), enc: json.NewEncoder(raw)}
}

func (c *conn) send(m message, timeout time.Duration) error {
	if timeout > 0 {
		if err := c.raw.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
	} else if err := c.raw.SetWriteDeadline(time.Time{}); err != nil {
		// A previous timed send must not poison this untimed one.
		return err
	}
	if !c.binary {
		if m.partialSec != nil {
			m.Partial = section(m.partialSec).toMap()
		}
		if err := c.enc.Encode(m); err != nil {
			return fmt.Errorf("netmr: send %s: %w", m.Type, err)
		}
		return nil
	}
	bufp := encBufPool.Get().(*[]byte)
	frame, keys, err := appendFrame((*bufp)[:0], &m, c.keys, c.binExt, c.trc, c.red, c.cmp, c.erl)
	c.keys = keys
	if err == nil {
		_, err = c.raw.Write(frame) // one write: one frame per chaos fault op
	}
	if cap(frame) > cap(*bufp) {
		*bufp = frame[:0] // the encode outgrew the pooled buffer: keep the larger one
	}
	encBufPool.Put(bufp)
	if err != nil {
		return fmt.Errorf("netmr: send %s: %w", m.Type, err)
	}
	return nil
}

func (c *conn) recv(timeout time.Duration) (message, error) {
	return c.recvFrame(timeout, nil)
}

// recvReduced is recv for a reduce task's reply at the master, the one
// receiver that keeps a result's Partial as the key-sorted section it
// travels as instead of decoding it into a map (a JSON peer's map
// becomes a section on arrival).
func (c *conn) recvReduced(timeout time.Duration) (message, section, error) {
	var sec section
	m, err := c.recvFrame(timeout, &sec)
	if err == nil && !c.binary {
		sec, m.Partial = sectionFromMap(m.Partial), nil
	}
	return m, sec, err
}

func (c *conn) recvFrame(timeout time.Duration, partial *section) (message, error) {
	if timeout > 0 {
		if err := c.raw.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return message{}, err
		}
	} else if err := c.raw.SetReadDeadline(time.Time{}); err != nil {
		return message{}, err
	}
	if !c.binary {
		line, err := c.r.ReadBytes('\n')
		if err != nil {
			return message{}, fmt.Errorf("netmr: recv: %w", err)
		}
		c.lastFrameLen = len(line)
		var decodeStart time.Time
		if c.trc {
			decodeStart = time.Now()
		}
		var m message
		if err := json.Unmarshal(line, &m); err != nil {
			return message{}, fmt.Errorf("netmr: decode: %w", err)
		}
		if c.trc {
			c.lastDecode = time.Since(decodeStart)
		}
		return m, nil
	}
	n, err := binary.ReadUvarint(c.r)
	if err != nil {
		return message{}, fmt.Errorf("netmr: recv: %w", err)
	}
	if n > maxFrameBytes {
		return message{}, fmt.Errorf("netmr: recv: frame length %d exceeds the %d limit", n, maxFrameBytes)
	}
	// Each frame is read into a buffer of its own, which decodeFrame keeps
	// as the text of the message it returns: no reused read buffer, no
	// second copy.
	body := make([]byte, n)
	if _, err := io.ReadFull(c.r, body); err != nil {
		return message{}, fmt.Errorf("netmr: recv: %w", err)
	}
	c.lastFrameLen = len(body)
	var decodeStart time.Time
	if c.trc {
		decodeStart = time.Now()
	}
	if c.sniff {
		c.cmp = len(body) > 0 && body[0] <= 1
		c.sniff = false
	}
	if c.cmp {
		if body, _, err = unwrapCompressedBody(body); err != nil {
			return message{}, fmt.Errorf("netmr: recv: %w", err)
		}
	}
	c.lastRawLen = len(body)
	if err := decodeFrame(body, &c.scratch, c.binExt, c.trc, c.red, c.cmp, c.erl, partial); err != nil {
		return message{}, err
	}
	if c.trc {
		c.lastDecode = time.Since(decodeStart)
	}
	// The scratch's Records/Batch backing arrays are reclaimed on the
	// next recv; callers are done with them by then (the worker finishes
	// a task before receiving the next frame).
	return c.scratch, nil
}

func (c *conn) close() error { return c.raw.Close() }

// Job is a MapReduce job executable by workers that registered it. Map
// and Reduce must be pure (no shared state): the same job name must mean
// the same computation on every worker.
type Job struct {
	Name   string
	Map    func(record string, emit func(key string, value float64))
	Reduce func(key string, values []float64) float64
	// Combine, when set, declares Reduce a streaming fold:
	// Reduce(k, vs) must equal vs[0] folded with Combine over vs[1:].
	// Workers then combine values as they are emitted instead of
	// buffering them per key, and the master merges partials the same
	// way — the zero-buffer path for associative reductions (sums,
	// counts, min/max).
	Combine func(acc, value float64) float64
}

// Validate checks the job definition.
func (j Job) Validate() error {
	if j.Name == "" {
		return fmt.Errorf("netmr: job needs a name")
	}
	if j.Map == nil || j.Reduce == nil {
		return fmt.Errorf("netmr: job %q needs Map and Reduce", j.Name)
	}
	return nil
}

// Registry holds the jobs a worker can execute.
type Registry struct {
	jobs map[string]Job
}

// NewRegistry builds a registry from jobs.
func NewRegistry(jobs ...Job) (*Registry, error) {
	r := &Registry{jobs: make(map[string]Job, len(jobs))}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return nil, err
		}
		if _, dup := r.jobs[j.Name]; dup {
			return nil, fmt.Errorf("netmr: duplicate job %q", j.Name)
		}
		r.jobs[j.Name] = j
	}
	return r, nil
}

// Names lists the registered job names, sorted — map iteration order
// must not leak into hellos, health documents, or logs.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.jobs))
	for name := range r.jobs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// lookup returns the named job.
func (r *Registry) lookup(name string) (Job, bool) {
	j, ok := r.jobs[name]
	return j, ok
}

// partitionIndex hashes key into [0, parts) — the one hash function
// workers and master must agree on, since a worker-partitioned result, a
// master-partitioned fallback and Result.Lookup must land identical keys
// in identical partitions: a protocol constant no version field covers,
// pinned by TestPartitionIndexGolden. The key goes in 8 bytes per multiply
// (the tail as keyPrefix pads it, told from real zeros by the length the
// hash starts from); murmur3's finalizer then brings the well-mixed high
// bits down to the low ones the modulo reads.
func partitionIndex(key string, parts int) int {
	if parts <= 1 {
		return 0
	}
	const mul = 0x9e3779b97f4a7c15 // 2^64 / golden ratio, odd
	h := uint64(len(key)) * mul
	for ; len(key) >= 8; key = key[8:] {
		h = (bits.RotateLeft64(h, 29) ^ u64at(key, 0)) * mul
	}
	h = (bits.RotateLeft64(h, 29) ^ keyPrefix(key)) * mul
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
	return int((h ^ h>>33) % uint64(parts))
}

// shardScratch holds the flat arena runShard executes in. One scratch
// per worker is reused across every shard it runs, so steady-state
// execution allocates only the result it ships back.
type shardScratch struct {
	keyIDs   map[string]int // key → dense id, reset per shard
	keys     []string       // id → key
	accs     []float64      // combiner path: running fold per key
	logKeys  []int          // buffered path: emission log (key ids ...)
	logVals  []float64      // ... and values, in emission order
	counts   []int          // per-key emission counts
	ends     []int          // per-key arena end offsets (prefix sums)
	arena    []float64      // all values, grouped by key
	vals     []float64      // id → shard-local result
	partOf   []int          // partitioned collect: id → partition
	partEnd  []int          // partitioned collect: per-partition window end in refs
	refs     []keyRef       // partitioned collect: key ids by partition; upper half: the sort's buffer
	combined bool           // run() took the combiner path
}

func newShardScratch() *shardScratch {
	return &shardScratch{keyIDs: make(map[string]int)}
}

func (sc *shardScratch) reset() {
	clear(sc.keyIDs)
	sc.keys = sc.keys[:0]
	sc.accs = sc.accs[:0]
	sc.logKeys = sc.logKeys[:0]
	sc.logVals = sc.logVals[:0]
}

// run executes the map side of a job over one shard of records,
// pre-reducing locally (combiner) so only one value per key crosses the
// network — mirroring the map-side combine of real frameworks.
//
// Jobs with a Combine fold every emission into a per-key accumulator as
// it happens. Jobs without one log emissions into two flat slices, then
// group the values into a single arena (counting sort by key id), so a
// collector can call Reduce once per key on its contiguous arena window
// — the same grouping map[string][]float64 used to do, without a slice
// per key. After run, sc.keys holds the distinct keys and values(j)
// yields each key's reduced value.
func (sc *shardScratch) run(j Job, records []string) {
	sc.reset()
	sc.combined = j.Combine != nil
	if sc.combined {
		emit := func(k string, v float64) {
			if id, ok := sc.keyIDs[k]; ok {
				sc.accs[id] = j.Combine(sc.accs[id], v)
				return
			}
			sc.keyIDs[k] = len(sc.keys)
			sc.keys = append(sc.keys, k)
			sc.accs = append(sc.accs, v)
		}
		for _, rec := range records {
			j.Map(rec, emit)
		}
		return
	}

	emit := func(k string, v float64) {
		id, ok := sc.keyIDs[k]
		if !ok {
			id = len(sc.keys)
			sc.keyIDs[k] = id
			sc.keys = append(sc.keys, k)
		}
		sc.logKeys = append(sc.logKeys, id)
		sc.logVals = append(sc.logVals, v)
	}
	for _, rec := range records {
		j.Map(rec, emit)
	}
	nk := len(sc.keys)
	sc.counts = grown(sc.counts, nk)
	sc.ends = grown(sc.ends, nk)
	clear(sc.counts)
	for _, id := range sc.logKeys {
		sc.counts[id]++
	}
	end := 0
	for id, n := range sc.counts {
		end += n
		sc.ends[id] = end
	}
	sc.arena = grown(sc.arena, len(sc.logVals))
	// Scatter values into per-key windows back to front, so ends[id]
	// walks down to the window start.
	for i := len(sc.logKeys) - 1; i >= 0; i-- {
		id := sc.logKeys[i]
		sc.ends[id]--
		sc.arena[sc.ends[id]] = sc.logVals[i]
	}
}

// grown returns s resized to n, reallocating only when it must; the
// contents are unspecified.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// values returns every key id's shard-local result: the running fold on
// the combiner path, one Reduce over the arena window otherwise.
func (sc *shardScratch) values(j Job) []float64 {
	if sc.combined {
		return sc.accs
	}
	sc.vals = grown(sc.vals, len(sc.keys))
	for id, k := range sc.keys {
		lo := sc.ends[id]
		sc.vals[id] = j.Reduce(k, sc.arena[lo:lo+sc.counts[id]])
	}
	return sc.vals
}

// runShardTraced executes one shard and collects the result into a
// single map — the unpartitioned wire shape — recording its phases on
// clock (nil: an untraced run; the marks then cost a nil check). The
// per-key reduction is its own pass — the "combine" span — so Wp splits
// into its two constituents.
func runShardTraced(j Job, records []string, sc *shardScratch, clock *spanClock) map[string]float64 {
	sc.run(j, records)
	clock.mark(spanMap)
	vals := sc.values(j)
	clock.mark(spanCombine)
	out := make(map[string]float64, len(sc.keys))
	for id, k := range sc.keys {
		out[k] = vals[id]
	}
	clock.mark(spanEncode)
	return out
}

// runShardPartitioned executes one shard and collects the result split
// into hash partitions, each a key-sorted section, empty partitions
// omitted. This is the only place map output is sorted and encoded:
// every later hop moves the sections as bytes. The hashing moved onto
// the worker is the cost the master's serial merge no longer pays (the
// "partition" span); the sort and encode are the "encode" span.
func runShardPartitioned(j Job, records []string, sc *shardScratch, parts int, clock *spanClock) []partitionPartial {
	if parts < 1 {
		parts = 1
	}
	sc.run(j, records)
	clock.mark(spanMap)
	vals := sc.values(j)
	clock.mark(spanCombine)
	nk := len(sc.keys)
	sc.partOf = grown(sc.partOf, nk)
	sc.partEnd = grown(sc.partEnd, parts)
	clear(sc.partEnd)
	for id, k := range sc.keys {
		p := partitionIndex(k, parts)
		sc.partOf[id] = p
		sc.partEnd[p]++
	}
	nonEmpty, end := 0, 0
	for p, n := range sc.partEnd {
		if n > 0 {
			nonEmpty++
		}
		end += n
		sc.partEnd[p] = end
	}
	clock.mark(spanPartition)
	// Group the keys by partition back to front (partEnd walks down to
	// each window's start), then sort and encode window by window.
	sc.refs = grown(sc.refs, 2*nk)
	for id := nk - 1; id >= 0; id-- {
		p := sc.partOf[id]
		sc.partEnd[p]--
		sc.refs[sc.partEnd[p]].id = uint32(id)
	}
	out := make([]partitionPartial, 0, nonEmpty)
	for p, lo := range sc.partEnd {
		hi := nk
		if p+1 < parts {
			hi = sc.partEnd[p+1]
		}
		if window := sc.refs[lo:hi]; hi > lo {
			sortRefs(window, sc.refs[nk+lo:nk+hi], sc.keys, 0)
			out = append(out, partitionPartial{ID: p, Partial: encodeSection(window, sc.keys, vals)})
		}
	}
	clock.mark(spanEncode)
	return out
}

// Worker-side phase names recorded into span summaries. "map" and
// "combine" are the shard's compute (Wp in the IPSO decomposition);
// "decode", "partition" and "encode" are serialization work that exists
// only because the job is distributed (Wo attribution).
const (
	spanDecode    = "decode"    // wire decode of the task frame
	spanMap       = "map"       // Map pass over the records (incl. streaming Combine)
	spanCombine   = "combine"   // per-key reduction of buffered emissions
	spanPartition = "partition" // hash-splitting keys into merge partitions
	spanEncode    = "encode"    // map task: sorting and encoding the result (sections, or the flat map); reduce task: sealing the merged section
	spanFetch     = "fetch"     // reduce task: pulling intermediate sections from peers
	spanReduce    = "reduce"    // reduce task: merge-fold of the gathered sections
	spanSpill     = "spill"     // writing sorted spill runs when the memory budget is exceeded
	spanMergeRuns = "mergeruns" // reduce task: merge-fold when spilled runs take part
	spanReplicate = "replicate" // pushing a persisted partition set to the replica peer
	spanAwait     = "await"     // early reduce task: waiting for the next morelocs round
)

// spanClock accumulates spanSummary intervals against a fixed epoch —
// the moment the worker received the task, so the master can re-base
// the whole window onto its own clock without synchronized clocks. A nil
// clock records nothing: untraced tasks run the same code.
type spanClock struct {
	epoch time.Time
	last  time.Time // end of the latest mark: where the next phase starts
	spans []spanSummary
}

// newSpanClock starts a clock whose epoch is decode-duration before now,
// with the decode interval already recorded: the wire decode happened
// before the task body could run.
func newSpanClock(decode time.Duration) *spanClock {
	now := time.Now()
	if decode < 0 {
		decode = 0
	}
	c := &spanClock{epoch: now.Add(-decode), last: now}
	c.spans = append(c.spans, spanSummary{Phase: spanDecode, Start: 0, End: decode.Seconds()})
	return c
}

// mark records phase as [end of the previous mark, now).
func (c *spanClock) mark(phase string) {
	if c == nil {
		return
	}
	now := time.Now()
	c.spans = append(c.spans, spanSummary{
		Phase: phase,
		Start: c.last.Sub(c.epoch).Seconds(),
		End:   now.Sub(c.epoch).Seconds(),
	})
	c.last = now
}

// appendSpanAfter appends a synthetic span of duration d placed right
// after the latest recorded interval — how spill and replicate work
// that happens outside the shard-compute clock joins the timeline
// without overlapping the compute spans.
func appendSpanAfter(spans []spanSummary, phase string, d time.Duration) []spanSummary {
	if d <= 0 {
		return spans
	}
	end := 0.0
	for _, s := range spans {
		if s.End > end {
			end = s.End
		}
	}
	return append(spans, spanSummary{Phase: phase, Start: end, End: end + d.Seconds()})
}
