// Package netmr is a real, network-distributed MapReduce runtime: a
// master listens on TCP, workers connect, the master scatters input
// shards to the workers (the split phase, with barrier synchronization),
// and every map task keeps its output hash-partitioned and key-sorted
// on its worker. Reduce tasks on the workers, which fetch each other's
// map output, then combine the partitions — the execution structure of
// Fig. 1 running over genuine sockets rather than the simulator.
//
// It exists so the library is a usable distributed system and so the
// IPSO phase decomposition (Wp from the parallel map and reduce waves, Ws
// from the master's merge window, Wo from dispatch) can be measured on
// real wall clocks. Values are restricted to string→float64 pairs so
// results serialize uniformly; that covers counting, summing and
// histogram workloads.
//
// The master tolerates worker failure: a shard whose worker dies or
// times out is reassigned to another live worker (up to a retry budget),
// the same recovery model as Hadoop's task re-execution.
//
// There is one wire generation. Every connection, a worker's to the
// master or to a peer's shuffle listener, opens in each direction with a
// four-byte preamble ('N', 'M', 'R', protocolVersion) written together
// with the first frame, and from then on carries the one frame layout of
// codec.go. Nothing is negotiated: the worker's hello names its identity,
// jobs and shuffle listener, the master's helloack the cluster's reducer
// count.
package netmr

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sort"
	"sync"
	"time"
)

// protocolVersion is the wire generation this build speaks, the last
// byte of the connection preamble. It covers everything two peers must
// agree on byte for byte: the frame layout and frame type bytes of
// codec.go, the section encoding and partitionIndex. Changing any of them is a version bump, and peers of
// different versions refuse each other at the first read, the refusing
// listener answering with its own preamble so both ends can name the two
// versions that met. A field can be added without a bump only as
// DESIGN.md §6 describes: tagged, optional, skipped by a decoder that
// does not know the tag. v3 added the release frame, v4 the chunk frame
// a reducer streams its output in, v5 dropped the flag byte in front of
// every body and the CompBytes field, v6 retired the task frame (a
// single shard travels as a taskbatch of one) and its Records field, and
// v7 the helloack's shuffle timeout: every bound is a constant of the
// build.
const protocolVersion = 7

// preamble opens every connection in both directions.
var preamble = [4]byte{'N', 'M', 'R', protocolVersion}

// checkPreamble verifies the four bytes a peer opened with.
func checkPreamble(p [4]byte) error {
	if p[0] != preamble[0] || p[1] != preamble[1] || p[2] != preamble[2] {
		return fmt.Errorf("netmr: not a netmr peer: connection opened with %q, this build speaks v%d", p[:], protocolVersion)
	}
	if p[3] != protocolVersion {
		return fmt.Errorf("netmr: protocol version mismatch: peer speaks v%d, this build speaks v%d", p[3], protocolVersion)
	}
	return nil
}

// message is the single wire frame (codec.go). Every frame carries every
// field; the comments name the frame types that set each.
type message struct {
	Type    string             // hello | helloack | taskbatch | mapdone | reducetask | morelocs | chunk | result | error | ping | pong | fetch | fetchresult | replicate | replicack | release
	ID      string             // hello: worker identity
	Job     string             // reducetask
	TaskID  int                // mapdone | error: map task; reducetask | morelocs | chunk | result | fetch | fetchresult: reduce partition; replicate | replicack: map task
	Attempt int                // reducetask and the replies to it and to a taskbatch: retry ordinal, 0-based
	Folded  section            // chunk | result: one chunk of the reduce partition's folded output, the result frame's being the last
	Jobs    []string           // hello
	Message string             // error; morelocs: "abort"
	Batch   []taskSpec         // taskbatch: its shards, one or more
	Parts   []partitionPartial // replicate: per-partition sections of one map task; fetchresult: per-map-task sections of one partition (ID is the map task id)
	Trace   string             // taskbatch | reducetask: job trace ID, which asks for Spans; echoed on the reply
	Spans   []spanSummary      // mapdone | result: worker-side phase spans

	// Distributed reduce.
	Run      string     // taskbatch | mapdone | reducetask | morelocs | fetch | replicate | release: run id intermediate output is keyed by
	Reducers int        // helloack: reduce partition count R; replicate: the run's R
	Fetch    string     // hello: worker's shuffle listener address; replicate: the pushing mapper's; error (of a reduce task): the holder whose fetch failed
	Bytes    int64      // result: intermediate bytes fetched over a socket; chunk: the partition's projected output bytes (first chunk only)
	Tasks    []int      // fetch: map task ids whose partition slice is wanted
	Locs     []fetchLoc // reducetask | morelocs: where winning map outputs are stored

	// Out-of-core shuffle.
	Rep     string // taskbatch: peer shuffle addr to replicate to; mapdone: addr actually replicated to
	Spills  int    // mapdone | result: spill runs written while producing this output
	Spilled int64  // mapdone | result: bytes written to spill files

	// Pipelined shuffle. A reducetask names the run's map count as Total:
	// the reducer gathers the initial Locs, then awaits the rest until it
	// has covered Total map tasks, taking each from its own store as it
	// lands there (its own output or a replica), and the others from the
	// morelocs frames that name them (same Run/TaskID, incremental
	// Locs/Reps — or Message "abort"). The master sends no location of an
	// output the reducer's worker holds. Total 0 means the frame names
	// every map output. Frame order on a worker's connection: a reducetask
	// may ride in the write of the taskbatch that takes the worker's last
	// map work, behind it; the worker starts it once the batch's last shard
	// is mapped, and the batch's answers all leave before the launch's
	// first reply. A morelocs for a launch that has answered is stale, and
	// ignored.
	Total     int        // reducetask: map tasks the run produces; chunk | result: the chunk's place in the partition's output, from 0; replicate: the push's set count
	Reps      []fetchLoc // reducetask | morelocs: replica shuffle addrs per map task (local failover)
	Failovers int        // result: fetches locally rerouted to a replica
}

// fetchLoc names one worker's shuffle listener and the map tasks whose
// persisted output it holds — the reduce task's treasure map.
type fetchLoc struct {
	Addr  string
	Tasks []int
}

// spanSummary is one worker-side phase interval shipped back piggybacked
// on a result frame: the phase name and its [Start, End) window in
// seconds relative to the moment the worker received the task. The
// master re-bases these onto its own clock when assembling the job
// timeline, so workers need no synchronized clocks — only a monotonic
// one.
type spanSummary struct {
	Phase string
	Start float64
	End   float64
}

// taskSpec is one shard inside a taskbatch frame; the worker answers
// each spec with its own mapdone frame, in order.
type taskSpec struct {
	Job     string
	TaskID  int
	Attempt int
	Records []string
}

// conn wraps a net.Conn with the preamble, framing and deadlines. A conn
// is sent on by one goroutine at a time and received on by one.
type conn struct {
	raw net.Conn
	r   *bufio.Reader

	greeted bool // our preamble has gone out (it rides the first send)
	checked bool // the peer's preamble has been read and matched

	// lastDecode is the wire-decode cost of the most recent recv: a worker
	// charges it to a traced task's "decode" span so deserialization
	// overhead is attributed instead of vanishing into RPC time.
	lastDecode time.Duration

	// lastFrameLen is the encoded body size of the most recent recv — what
	// a reducer charges to Stats.ShuffleBytes per fetched frame.
	lastFrameLen int

	// in carries the frames a reader goroutine decodes once startReader
	// has run (a worker's master connection); recv then takes them from
	// it. quit, closed by close, ends the reader, and read closes once it
	// has.
	in         chan inFrame
	quit, read chan struct{}
	quitOnce   sync.Once
}

// inFrame is one frame the reader decoded, or the error that ended it.
type inFrame struct {
	m      message
	n      int           // body bytes
	decode time.Duration // decode cost
	err    error
}

func newConn(raw net.Conn) *conn {
	return &conn{raw: raw, r: bufio.NewReader(raw)}
}

func (c *conn) send(m message, timeout time.Duration) error {
	return c.sendFrames([]message{m}, timeout)
}

// sendFrames sends ms back to back in one write (on a new connection
// behind its preamble): one writev on a TCP conn, one fault op on a chaos
// conn.
func (c *conn) sendFrames(ms []message, timeout time.Duration) error {
	if timeout > 0 {
		if err := c.raw.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
	} else if err := c.raw.SetWriteDeadline(time.Time{}); err != nil {
		// A previous timed send must not poison this untimed one.
		return err
	}
	var lead []byte
	if !c.greeted {
		lead = preamble[:]
	}
	// Each frame's segments alias its own encoder until the write is done.
	var one [1]*frameEnc
	encs := one[:0]
	var segs net.Buffers
	var err error
	for i := range ms {
		e := encBufPool.Get().(*frameEnc)
		encs = append(encs, e)
		var s net.Buffers
		if s, err = e.encode(&ms[i], lead, sectionRefBytes); err != nil {
			err = fmt.Errorf("netmr: send %s: %w", ms[i].Type, err)
			break
		}
		lead = nil
		if len(ms) == 1 {
			segs = s
		} else {
			segs = append(segs, s...)
		}
	}
	if err == nil {
		if len(segs) == 1 {
			_, err = c.raw.Write(segs[0])
		} else if bw, ok := c.raw.(interface {
			WriteBuffers(net.Buffers) (int64, error)
		}); ok {
			_, err = bw.WriteBuffers(segs)
		} else {
			encs[0].out = segs
			_, err = encs[0].out.WriteTo(c.raw)
		}
		c.greeted = true
		if err != nil {
			err = fmt.Errorf("netmr: send %s: %w", ms[0].Type, err)
		}
	}
	for _, e := range encs {
		clear(e.segs[:cap(e.segs)]) // the pool must not keep a frame's sections alive
		encBufPool.Put(e)
	}
	return err
}

// readPreamble checks the peer's opening bytes. A listener that refuses
// them has not spoken yet, so it answers with its own preamble before the
// caller hangs up: the dialer, which reads it as the reply to its first
// frame, then reports the same mismatch from its side.
func (c *conn) readPreamble() error {
	var p [4]byte
	if _, err := io.ReadFull(c.r, p[:]); err != nil {
		return fmt.Errorf("netmr: recv: %w", err)
	}
	err := checkPreamble(p)
	if err != nil && !c.greeted {
		c.greeted = true
		if c.raw.SetWriteDeadline(time.Now().Add(time.Second)) == nil {
			_, _ = c.raw.Write(preamble[:]) // best effort: the connection closes either way
		}
	}
	c.checked = err == nil
	return err
}

// recv returns the next frame, waiting at most timeout for it (0: no
// bound). Every frame is decoded into a message of its own, so what a
// caller keeps of one outlives the next recv.
func (c *conn) recv(timeout time.Duration) (message, error) {
	if c.in == nil {
		return c.took(c.readFrame(timeout), true)
	}
	var expire <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expire = t.C
	}
	m, expired, err := recvOr(c, expire)
	if expired {
		err = fmt.Errorf("netmr: recv: no frame within %v", timeout)
	}
	return m, err
}

// recvOr is recv without a bound on a conn with a reader, which also
// returns, with woke set and no message, when wake fires first.
func recvOr[T any](c *conn, wake <-chan T) (m message, woke bool, err error) {
	select {
	case f, ok := <-c.in:
		m, err = c.took(f, ok)
		return m, false, err
	case <-wake:
		return message{}, true, nil
	}
}

// waiting takes the frame the reader has decoded already, if one waits
// (ok); nothing on a conn without a reader.
func (c *conn) waiting() (m message, ok bool, err error) {
	select {
	case f, open := <-c.in:
		m, err = c.took(f, open)
		return m, true, err
	default:
		return message{}, false, nil
	}
}

// took books frame f, from a reader that had not ended (ok), as the one
// received.
func (c *conn) took(f inFrame, ok bool) (message, error) {
	if !ok {
		return message{}, errors.New("netmr: recv: connection closed")
	}
	if f.err != nil {
		return message{}, f.err
	}
	c.lastFrameLen, c.lastDecode = f.n, f.decode
	return f.m, nil
}

// startReader moves c's reads onto a goroutine of its own, which decodes
// frames ahead of recv until a read fails or c closes: a worker's reduce
// launch waits on its master's next frame and on its own store at once
// (runReduceTask). The goroutine ends with the connection: close waits
// for it.
func (c *conn) startReader() {
	c.in, c.quit, c.read = make(chan inFrame), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(c.read)
		defer close(c.in)
		for {
			f := c.readFrame(0)
			select {
			case c.in <- f:
			case <-c.quit:
				return
			}
			if f.err != nil {
				return
			}
		}
	}()
}

// readFrame reads and decodes one frame from the socket.
func (c *conn) readFrame(timeout time.Duration) inFrame {
	if timeout > 0 {
		if err := c.raw.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return inFrame{err: err}
		}
	} else if err := c.raw.SetReadDeadline(time.Time{}); err != nil {
		return inFrame{err: err}
	}
	if !c.checked {
		if err := c.readPreamble(); err != nil {
			return inFrame{err: err}
		}
	}
	n, err := binary.ReadUvarint(c.r)
	if err != nil {
		return inFrame{err: fmt.Errorf("netmr: recv: %w", err)}
	}
	if n > maxFrameBytes {
		return inFrame{err: fmt.Errorf("netmr: recv: frame length %d exceeds the %d limit", n, maxFrameBytes)}
	}
	// Each frame is read into a buffer of its own, which decodeFrame keeps
	// as the text of the message it returns: no reused read buffer.
	body, err := readBody(c.r, int(n))
	if err != nil {
		return inFrame{err: fmt.Errorf("netmr: recv: %w", err)}
	}
	f := inFrame{n: len(body)}
	decodeStart := time.Now()
	f.err = decodeFrame(body, &f.m)
	f.decode = time.Since(decodeStart)
	return f
}

// close closes the connection and, when c has a reader, waits for it to
// end.
func (c *conn) close() error {
	err := c.raw.Close()
	if c.in != nil {
		c.quitOnce.Do(func() { close(c.quit) })
		<-c.read
	}
	return err
}

// recvStep is how much of a longer frame body must have arrived before
// the body gets a buffer of its own.
const recvStep = 1 << 20

// probePool holds the buffers the first recvStep of a longer body is read
// into: a fresh one per frame would be garbage the size of the step.
var probePool = sync.Pool{New: func() any { return new([recvStep]byte) }}

// readBody reads an n-byte frame body. The first recvStep of a longer one
// lands in a pooled probe before the body's buffer is allocated, so a peer
// costs no more than a probe until it has sent recvStep bytes of a body,
// whatever length it declared.
func readBody(r io.Reader, n int) ([]byte, error) {
	if n <= recvStep {
		body := make([]byte, n)
		_, err := io.ReadFull(r, body)
		return body, err
	}
	probe := probePool.Get().(*[recvStep]byte)
	defer probePool.Put(probe)
	if _, err := io.ReadFull(r, probe[:]); err != nil {
		return nil, err
	}
	body := make([]byte, n)
	_, err := io.ReadFull(r, body[copy(body, probe[:]):])
	return body, err
}

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
	// buffering them per key, and reducers fold partials the same
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

// keyHash is the one hash of a key, for partitionIndex and keyTable. The
// key goes in 8 bytes per multiply (the tail as keyPrefix pads it, told
// from real zeros by the length the hash starts from); murmur3's
// finalizer then brings the well-mixed high bits down to the low ones
// partitionIndex's modulo reads.
func keyHash(key string) uint64 {
	const mul = 0x9e3779b97f4a7c15 // 2^64 / golden ratio, odd
	h := uint64(len(key)) * mul
	for ; len(key) >= 8; key = key[8:] {
		h = (bits.RotateLeft64(h, 29) ^ u64at(key, 0)) * mul
	}
	h = (bits.RotateLeft64(h, 29) ^ keyPrefix(key)) * mul
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// partitionIndex hashes key into [0, parts). Every worker must agree on
// it (the map tasks of a run land identical keys in identical
// partitions): a protocol constant that protocolVersion covers, pinned
// by TestPartitionIndexGolden.
func partitionIndex(key string, parts int) int {
	if parts <= 1 {
		return 0
	}
	return int(keyHash(key) % uint64(parts))
}

// shardScratch holds the flat arena runShard executes in. One scratch
// per worker is reused across every shard it runs, so steady-state
// execution allocates only the result it ships back.
type shardScratch struct {
	ids      keyTable  // key → dense id, reset per shard
	keys     []string  // id → key
	accs     []float64 // combiner path: running fold per key
	logKeys  []int     // buffered path: emission log (key ids ...)
	logVals  []float64 // ... and values, in emission order
	counts   []int     // per-key emission counts
	ends     []int     // per-key arena end offsets (prefix sums)
	arena    []float64 // all values, grouped by key
	vals     []float64 // id → shard-local result
	partOf   []int     // partitioned collect: id → partition
	partEnd  []int     // partitioned collect: per-partition window end in refs
	refs     []keyRef  // partitioned collect: key ids by partition; upper half: the sort's buffer
	combined bool      // run() took the combiner path
}

func (sc *shardScratch) reset() {
	sc.ids.reset()
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
			if id, added := sc.ids.id(k, &sc.keys); added {
				sc.accs = append(sc.accs, v)
			} else {
				sc.accs[id] = j.Combine(sc.accs[id], v)
			}
		}
		for _, rec := range records {
			j.Map(rec, emit)
		}
		return
	}

	emit := func(k string, v float64) {
		id, _ := sc.ids.id(k, &sc.keys)
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

// runShardPartitioned executes one shard and collects the result split
// into hash partitions, each a key-sorted section, empty partitions
// omitted: the one shape map output takes, recording its phases on clock
// (nil: an untraced task; the marks then cost a nil check). This is the
// only place map output is sorted and encoded: every later hop moves the
// sections as bytes. The per-key reduction is its own pass, the "combine"
// span, so Wp splits into its two constituents; the hashing that routes
// each key to its reducer is the "partition" span; the sort and encode
// are the "encode" span.
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
	spanPartition = "partition" // hash-splitting keys into reduce partitions
	spanEncode    = "encode"    // map task: sorting and encoding the sections; reduce task: sealing the merged section
	spanFetch     = "fetch"     // reduce task: pulling intermediate sections from peers
	spanReduce    = "reduce"    // reduce task: merge-fold of the gathered sections
	spanSpill     = "spill"     // writing sorted spill runs when the memory budget is exceeded
	spanMergeRuns = "mergeruns" // reduce task: merge-fold when spilled runs take part
	spanReplicate = "replicate" // pushing a persisted partition set to the replica peer
	spanAwait     = "await"     // reduce task: waiting for the next morelocs round
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
