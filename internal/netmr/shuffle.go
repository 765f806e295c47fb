package netmr

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ipso/internal/runner"
)

// Worker-side half of the distributed reduce phase: a worker persists
// its partitioned map output keyed by (run, map task), serves it to peer
// reducers over fetch/fetchresult frames on a dedicated shuffle
// listener, and executes reduce tasks by reading every map task's slice
// of its partition from its own store or from those peers, and folding
// them — the OSDI'04 shape where reduce work scales with the cluster
// instead of living in the master process.
//
// The store is out-of-core: a configurable byte budget bounds how much
// intermediate output stays resident, whole partition sets spilling to
// per-run temp files (sorted by key, indexed by partition) when it is
// exceeded, and every persisted set is replicated to one peer so a
// worker lost after mapdone does not lose its outputs.

// defaultShuffleTimeout bounds one fetch round-trip between workers
// unless WorkerConfig/MasterConfig override it.
const defaultShuffleTimeout = 30 * time.Second

// storedTask is one map task's partition set: its sections in memory
// (parts) until the store's budget forces them to disk (spill), never
// both. bytes is the sections' exact size — what the budget counts.
type storedTask struct {
	parts []partitionPartial
	bytes int64
	spill *spillFile
}

// interStore is a worker's intermediate store. It holds the partitioned
// map output of exactly one run, and lives as long as the run: the
// master's release frame, sent as the run ends, drops everything the run
// left here, spill files and scratch dir included. A task stored under a
// new run id evicts the previous run the same way, reducer count
// included; that is the fallback for a worker busy with an abandoned
// launch when the release went out. The serve goroutine writes;
// shuffle-server goroutines read concurrently, hence the lock.
type interStore struct {
	mu       sync.Mutex
	run      string
	reducers int
	// next is the oldest run a put may still be for: the run held, or the
	// one after the newest given up. Runs are numbered in order (the
	// "#seq" of a run id), so a put for an older one is a straggler's,
	// refused.
	next int64

	budget  int64  // resident-byte watermark; 0 = never spill
	baseDir string // spill scratch root; "" = os.TempDir()
	dir     string // current run's spill dir, created lazily

	mem  int64 // resident bytes of in-memory partition sets
	peak int64 // high-water resident bytes, measured after spilling

	totalSpills  int
	totalSpilled int64

	tasks map[int]*storedTask
}

func newInterStore() *interStore {
	return &interStore{tasks: map[int]*storedTask{}}
}

// configure sets the spill policy. Called before Start, so no lock
// contention matters; it takes the lock anyway for the race detector's
// peace of mind.
func (s *interStore) configure(budget int64, dir string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.budget, s.baseDir = budget, dir
}

// setReducers publishes the helloack-granted reduce partition count to
// the shuffle server goroutines (which validate fetch requests with it),
// and forgets the runs left: a new master's run ids start over.
func (s *interStore) setReducers(r int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reducers = r
	s.next = 0
}

// errRunLeft refuses a put for a run older than the newest the store has
// held or given up.
var errRunLeft = errors.New("the run is over")

// runSeq is the sequence number a run id ends in ("wordcount#3": 3); 0
// for an id without one.
func runSeq(run string) int64 {
	n, _ := strconv.ParseInt(run[strings.LastIndexByte(run, '#')+1:], 10, 64)
	return n
}

// put stores one map task's partitioned output under run — its own or a
// peer's it replicates — evicting any previous run's intermediates
// first. reducers is the partition count of the run (the spill section
// table is sized by it, and a run change adopts it so the evicted run's
// count cannot leak forward). When the byte budget is exceeded, whole
// partition sets spill to disk in ascending task order until the store
// fits again; spills/spilled report what this call flushed. A spill
// error leaves the set resident (correct, just over budget). A put for
// a run older than the newest the store has held or left is refused with
// errRunLeft.
func (s *interStore) put(run string, task int, parts []partitionPartial, reducers int) (spills int, spilled int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := runSeq(run)
	if seq < s.next {
		return 0, 0, fmt.Errorf("netmr: put of map task %d for run %q: %w", task, run, errRunLeft)
	}
	if s.run != run {
		s.leaveLocked()
		s.run, s.next = run, seq
		s.reducers = reducers
	}
	if old, ok := s.tasks[task]; ok {
		// A speculation loser or a replica of output already held: replace.
		if old.spill != nil {
			old.spill.remove()
		} else {
			s.mem -= old.bytes
		}
	}
	st := &storedTask{parts: parts}
	for _, p := range parts {
		st.bytes += int64(len(p.Partial))
	}
	s.tasks[task] = st
	s.mem += st.bytes
	if s.budget > 0 && s.mem > s.budget {
		spills, spilled, err = s.spillLocked()
		s.totalSpills += spills
		s.totalSpilled += spilled
	}
	if s.mem > s.peak {
		s.peak = s.mem
	}
	return spills, spilled, err
}

// spillLocked flushes resident partition sets in ascending task order
// until the store fits its budget again. spilled counts bytes that hit
// disk.
func (s *interStore) spillLocked() (int, int64, error) {
	if s.dir == "" {
		dir, err := ensureSpillDir(s.baseDir, s.run)
		if err != nil {
			return 0, 0, err
		}
		s.dir = dir
	}
	ids := make([]int, 0, len(s.tasks))
	for id, st := range s.tasks {
		if st.spill == nil {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	var spills int
	var spilled int64
	for _, id := range ids {
		if s.mem <= s.budget {
			break
		}
		st := s.tasks[id]
		sf, n, err := writeSpillFile(s.dir, id, st.parts, s.reducers)
		if err != nil {
			return spills, spilled, err
		}
		st.spill = sf
		st.parts = nil
		s.mem -= st.bytes
		spills++
		spilled += n
	}
	return spills, spilled, nil
}

// leaveLocked drops the run held: every task, spill files and scratch
// dir included. Its id is cleared, so late fetches are refused rather
// than answered from a torn-down store, and next moves past it, so its
// stragglers are too.
func (s *interStore) leaveLocked() {
	for _, st := range s.tasks {
		if st.spill != nil {
			st.spill.remove()
		}
	}
	clear(s.tasks)
	s.mem = 0
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
		s.dir = ""
	}
	if s.run != "" {
		s.next, s.run = max(s.next, runSeq(s.run)+1), ""
	}
}

// release ends run on the master's word: dropped if it is the run held,
// refused from now on, with every run before it, either way.
func (s *interStore) release(run string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.run == run {
		s.leaveLocked()
	}
	s.next = max(s.next, runSeq(run)+1)
}

// evictAll is leaveLocked for Worker.Stop: nothing survives.
func (s *interStore) evictAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.leaveLocked()
}

// stats reports the high-water resident bytes and cumulative spill
// volume — what the ooshuffle experiment asserts its budget against.
func (s *interStore) stats() (peak, spilled int64, runs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak, s.totalSpilled, s.totalSpills
}

// split divides tasks into those the store holds for run, as its own
// output or as a replica, and the rest, so a reducer dials a peer only
// for what it does not already have.
func (s *interStore) split(run string, tasks []int) (held, missing []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if run == "" || run != s.run {
		return nil, tasks
	}
	held = make([]int, 0, len(tasks)) // the usual answer: all of them
	for _, task := range tasks {
		if _, ok := s.tasks[task]; ok {
			held = append(held, task)
		} else {
			missing = append(missing, task)
		}
	}
	return held, missing
}

// slice answers one fetch, a peer's or the worker's own reducer's:
// partition's section of every requested map task (ID is the map task id;
// a task that emitted no keys into the partition contributes an empty
// section, which still acknowledges the task is held). Resident or read
// back from the task's spill file, the section is handed on as the bytes
// it is — nothing here decodes one. With stream set, a spilled section
// is not read: it comes back as a merge source over the store's file,
// for the reducer's fold to read block by block. A mismatched run, an
// out-of-range partition or an unknown task id is a request the serving
// worker must refuse — not panic over — whatever a rogue or confused
// reducer sends; so is a spilled section that fails its checksum, or
// whose file the store closed meanwhile: disk reads run outside the
// lock, so they never block a put or another fetch.
func (s *interStore) slice(run string, partition int, tasks []int, stream bool) ([]partitionPartial, []*mergeSource, error) {
	out, files, err := s.snapshot(run, partition, tasks)
	if err != nil {
		return nil, nil, err
	}
	var streams []*mergeSource
	n := 0
	for i, sf := range files {
		if sf != nil {
			if r := sf.blocks(partition); stream && r != nil {
				streams = append(streams, &mergeSource{task: out[i].ID, blocks: r})
				continue
			}
			if out[i].Partial, err = sf.section(partition); err != nil {
				return nil, nil, err
			}
		}
		out[n] = out[i]
		n++
	}
	return out[:n], streams, nil
}

// snapshot is slice's locked half: resident sections, spilled tasks' files.
func (s *interStore) snapshot(run string, partition int, tasks []int) ([]partitionPartial, []*spillFile, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if run == "" || run != s.run {
		return nil, nil, fmt.Errorf("run %q is not held (current %q)", run, s.run)
	}
	if partition < 0 || partition >= s.reducers {
		return nil, nil, fmt.Errorf("partition %d out of range [0,%d)", partition, s.reducers)
	}
	out := make([]partitionPartial, len(tasks))
	files := make([]*spillFile, len(tasks))
	for i, task := range tasks {
		st, ok := s.tasks[task]
		if !ok {
			return nil, nil, fmt.Errorf("map output for task %d is not held", task)
		}
		out[i] = partitionPartial{ID: task, Partial: partOf(st.parts, partition)}
		files[i] = st.spill
	}
	return out, files, nil
}

// startFetchListener binds the worker's shuffle listener on an ephemeral
// localhost port and serves fetch requests until the listener closes.
// The returned address is what the worker advertises in its hello.
func (w *Worker) startFetchListener() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("netmr: shuffle listen: %w", err)
	}
	w.mu.Lock()
	w.fetchLn = ln
	w.mu.Unlock()
	go func() {
		for {
			raw, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			// A socket accepted just before the plane closed is closed
			// here: the teardown's snapshot did not hold it.
			w.mu.Lock()
			open := w.fetchLn == ln
			if open {
				w.fetchConns[raw] = struct{}{}
			}
			w.mu.Unlock()
			if !open {
				_ = raw.Close()
				return
			}
			go w.serveFetch(raw)
		}
	}()
	return ln.Addr().String(), nil
}

// closeFetchPlane tears the shuffle plane down whole: the listener (no
// new peers) and every accepted socket (in-flight peers, including the
// pooled connections riding them). Stop and the mapper-loss chaos hooks
// use it — a worker whose listener merely closed would keep serving
// peers that connected earlier.
func (w *Worker) closeFetchPlane() {
	w.mu.Lock()
	ln := w.fetchLn
	w.fetchLn = nil
	conns := make([]net.Conn, 0, len(w.fetchConns))
	for c := range w.fetchConns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
}

// pushReadBytes sizes a shuffle connection's read buffer so that a
// replica push of small sets, the frames of one write, is taken in one
// read: a batch's push is a few sets of a few KB each, more than the
// default 4 KiB buffer holds. A frame larger than the buffer still goes
// mostly straight into its own body buffer.
const pushReadBytes = 64 << 10

// serveFetch handles one peer shuffle connection, which opens like any
// other: the dialer's preamble rides its first frame, and a peer of
// another version is refused there. A bad request gets an error frame
// and the connection keeps serving — one rogue fetch must not take the
// worker's other partitions down with it.
func (w *Worker) serveFetch(raw net.Conn) {
	c := &conn{raw: raw, r: bufio.NewReaderSize(raw, pushReadBytes)}
	defer func() {
		_ = c.close()
		w.mu.Lock()
		delete(w.fetchConns, raw)
		w.mu.Unlock()
	}()
	to := w.shuffleTO()
	for {
		m, err := c.recv(to)
		if err != nil {
			return // peer done (or garbage framing, or another version — either way, hang up)
		}
		switch m.Type {
		case "fetch":
			parts, _, err := w.store.slice(m.Run, m.TaskID, m.Tasks, false)
			if err != nil {
				workerServes.With("rejected").Inc()
				if c.send(message{Type: "error", TaskID: m.TaskID, Message: err.Error()}, to) != nil {
					return
				}
				continue
			}
			workerServes.With("ok").Inc()
			if c.send(message{Type: "fetchresult", TaskID: m.TaskID, Parts: parts}, to) != nil {
				return
			}
		case "replicate":
			// A push of Total sets (0: one) arrives in one write and is
			// answered in one: every set is stored before any ack leaves.
			acks := []message{w.storeReplica(m)}
			for len(acks) < m.Total {
				next, err := c.recv(to)
				if err != nil || next.Type != "replicate" {
					return // a push cut short: its sets stay unreplicated
				}
				acks = append(acks, w.storeReplica(next))
			}
			if c.sendFrames(acks, to) != nil {
				return
			}
		default:
			workerServes.With("rejected").Inc()
			if c.send(message{Type: "error", Message: fmt.Sprintf("unexpected frame %q on shuffle connection", m.Type)}, to) != nil {
				return
			}
		}
	}
}

// storeReplica stores one pushed partition set and returns its answer: a
// replicack, or an error frame for a run the store has left. A put whose
// spill failed is acknowledged: the set stays resident, just over budget.
func (w *Worker) storeReplica(m message) message {
	_, _, err := w.store.put(m.Run, m.TaskID, m.Parts, m.Reducers)
	if errors.Is(err, errRunLeft) {
		workerServes.With("rejected").Inc()
		return message{Type: "error", TaskID: m.TaskID, Message: err.Error()}
	}
	if err != nil {
		workerSpillErrors.Inc()
	}
	workerReplicasStored.Inc()
	return message{Type: "replicack", TaskID: m.TaskID}
}

// fetchExchange runs one fetch request/response over an established
// shuffle connection, returning the per-task partials and the encoded
// bytes transferred. A refusal (error frame from a healthy peer) comes
// back as a peerRefusal so the pool knows the connection survived it.
func fetchExchange(c *conn, addr, run string, partition int, tasks []int, timeout time.Duration) ([]partitionPartial, int64, error) {
	if err := c.send(message{Type: "fetch", Run: run, TaskID: partition, Tasks: tasks}, timeout); err != nil {
		return nil, 0, err
	}
	reply, err := c.recv(timeout)
	if err != nil {
		return nil, 0, err
	}
	switch reply.Type {
	case "fetchresult":
		return reply.Parts, int64(c.lastFrameLen), nil
	case "error":
		return nil, 0, &peerRefusal{msg: fmt.Sprintf("netmr: fetch from %s refused: %s", addr, reply.Message)}
	default:
		return nil, 0, fmt.Errorf("netmr: fetch from %s answered %q", addr, reply.Type)
	}
}

// replicateExchange pushes replicate frames to the peer over an
// established shuffle connection, all in one write, each naming the
// push's set count in Total, then reads the replies in order: the peer
// stores every set before it answers them all in one write, so the sets
// cost one round trip together. A refusal
// (an error frame from a healthy peer) lands in errs[i] as a peerRefusal
// and fails only its own set. It returns how many sets were answered and
// the connection failure that stopped it, if any.
func replicateExchange(c *conn, addr string, frames []message, timeout time.Duration, errs []error) (int, error) {
	for i := range frames {
		frames[i].Total = len(frames)
	}
	if err := c.sendFrames(frames, timeout); err != nil {
		return 0, err
	}
	for i := range frames {
		task := frames[i].TaskID
		reply, err := c.recv(timeout)
		if err != nil {
			return i, err
		}
		switch {
		case reply.Type == "replicack" && reply.TaskID == task:
		case reply.Type == "error":
			errs[i] = &peerRefusal{msg: fmt.Sprintf("netmr: replicate to %s refused: %s", addr, reply.Message)}
		default:
			return i, fmt.Errorf("netmr: replicate of map task %d to %s answered %q (task %d)", task, addr, reply.Type, reply.TaskID)
		}
	}
	return len(frames), nil
}

// fetchError names the peer whose fetch (or local read) failed, so the
// reduce error frame can carry the address the master plans around.
type fetchError struct {
	addr string
	err  error
}

func (e *fetchError) Error() string { return e.err.Error() }
func (e *fetchError) Unwrap() error { return e.err }

// locResult is one location's gathered slice (sections, and streams over
// those the worker's own store holds on disk) plus its transfer
// accounting — assembled concurrently by fetchRound, folded in location
// order by the caller.
type locResult struct {
	parts     []partitionPartial
	streams   []*mergeSource
	fetched   int64
	failovers int
}

// fetchRound pulls partition's slice from every location concurrently,
// bounded by the worker's shuffle fan-out, with results in location
// order. Every map task the worker's own store holds, its own output or
// a peer's replica, is read from the store (or, with stream set, left on
// its disk for the fold to stream); only the rest of a location is
// fetched from its address, through the connection pool. A primary's
// failure — a dead peer, a refusal, or the worker's own output failing
// its checksum — fails over to the map tasks' replica holders when repOf
// names them; only when that too fails (or no replica covers a task)
// does the round error, naming the primary so the master routes
// recovery around it.
func (w *Worker) fetchRound(run string, partition int, locs []fetchLoc, repOf map[int]string, stream bool, to time.Duration) ([]locResult, error) {
	ctx := runner.WithWorkers(context.Background(), w.shuffleFanout)
	fetch := func(res *locResult, addr string, tasks []int) error {
		fetchStart := time.Now()
		parts, n, err := w.pool.fetchPartition(addr, run, partition, tasks, to)
		workerFetchSeconds.Observe(time.Since(fetchStart).Seconds())
		if err != nil {
			workerFetches.With("failed").Inc()
			return err
		}
		workerFetches.With("ok").Inc()
		res.parts = append(res.parts, parts...)
		res.fetched += n
		return nil
	}
	return runner.Map(ctx, len(locs), func(_ context.Context, i int) (res locResult, err error) {
		loc := locs[i]
		held, missing := loc.Tasks, []int(nil)
		if loc.Addr != w.fetchAddr {
			held, missing = w.store.split(run, loc.Tasks)
		}
		if len(held) > 0 {
			res.parts, res.streams, err = w.store.slice(run, partition, held, stream)
			switch {
			case err == nil:
				workerFetches.With("local").Inc()
			case loc.Addr == w.fetchAddr:
				missing = held // its own output: only a replica holder can help
			default:
				// A replica that fails its read is no loss, the primary
				// serves the whole location; it counts as a failover.
				missing, err = loc.Tasks, nil
				res.failovers++
				workerFailovers.Inc()
			}
		}
		if err == nil && len(missing) > 0 {
			err = fetch(&res, loc.Addr, missing)
		}
		if err == nil {
			return res, nil
		}
		// Re-pull the failed tasks from their replica holders. Every one
		// must have a known replica distinct from the failed primary and
		// every replica fetch must succeed — a partial recovery is no
		// recovery, so the primary's failure stands otherwise.
		groups := map[string][]int{}
		var order []string
		for _, task := range missing {
			rep, ok := repOf[task]
			if !ok || rep == loc.Addr {
				return locResult{}, &fetchError{addr: loc.Addr, err: err}
			}
			if _, seen := groups[rep]; !seen {
				order = append(order, rep)
			}
			groups[rep] = append(groups[rep], task)
		}
		for _, rep := range order {
			if fetch(&res, rep, groups[rep]) != nil {
				return locResult{}, &fetchError{addr: loc.Addr, err: err}
			}
			res.failovers++
			workerFailovers.Inc()
		}
		return res, nil
	})
}

// runReduceTask executes one reduce task: gather the partition's section
// of every map task — what its own store holds (output or replica, no
// dial), peer fetches for the rest — merge them by (key, ascending map
// task) through the job's fold, and
// send the merge's output, already in wire form, as it is produced: a
// chunk frame each time chunkBytes of it are ready, then a result frame
// with the last chunk, the intermediate bytes fetched and the task's
// accounts. A partition that fits one chunk travels in the result frame
// alone. Fetches run concurrently up to the shuffle fan-out over pooled
// connections, and fetch failures fail over to replica holders locally
// when the task frame named them. Under a spill budget the gathered
// sections pass through sorted runs on disk, and what the store itself
// spilled is streamed from its files; both join the same merge, so the
// output is byte-identical at every budget, and a disk copy that fails
// mid-merge costs one re-gather, not the task: the fold then runs again
// and sends its chunks again from the first. A task launched while some
// map outputs are not located (under the map tail, or after a loss)
// names only those located: the worker keeps receiving morelocs frames —
// gathering each batch as it lands — until it has covered Total map
// outputs or the master calls the launch back.
// A gather failure is answered with an error frame naming the peer that
// failed (Fetch), so the master can consult replica locations instead
// of evicting the healthy reducer.
func (w *Worker) runReduceTask(c *conn, m message, decode time.Duration) bool {
	to := w.shuffleTO()
	job, ok := w.registry.lookup(m.Job)
	if !ok {
		workerTasks.With("unknown_job").Inc()
		_ = c.send(message{Type: "error", TaskID: m.TaskID, Message: fmt.Sprintf("unknown job %q", m.Job)}, to)
		return true
	}
	if f := w.chaos.TaskFault("reduce", m.TaskID, m.Attempt); f.Delay > 0 || f.Crash {
		if f.Delay > 0 {
			time.Sleep(f.Delay)
		}
		if f.Crash {
			workerTasks.With("crashed").Inc()
			return false
		}
	}
	var clock *spanClock
	if m.Trace != "" {
		clock = newSpanClock(decode)
	}
	start := time.Now()
	folder := newSpillFolder(w.spillBudget, w.spillDir, m.Run)
	defer folder.discard()
	covered := 0
	repOf := map[int]string{}
	noteReps := func(reps []fetchLoc) {
		for _, rep := range reps {
			for _, task := range rep.Tasks {
				repOf[task] = rep.Addr
			}
		}
	}
	noteReps(m.Reps)
	var fetched int64
	failovers, stream := 0, true // the first gather leaves the store's spilled sections on disk, for the fold to stream
	// round gathers one batch of map outputs from their locations,
	// concurrently.
	round := func(locs []fetchLoc) (string, error) {
		results, err := w.fetchRound(m.Run, m.TaskID, locs, repOf, stream, to)
		if err != nil {
			var fe *fetchError
			if errors.As(err, &fe) {
				return fe.addr, err
			}
			return "", err
		}
		for _, r := range results {
			fetched += r.fetched
			failovers += r.failovers
			for _, p := range r.parts {
				folder.add(p.ID, p.Partial)
			}
			for _, src := range r.streams {
				folder.stream(src)
			}
			covered += len(r.parts) + len(r.streams)
		}
		return "", nil
	}
	locs := m.Locs // everything announced so far, should the gather have to run again
	failedAddr, gatherErr := round(locs)
	clock.mark(spanFetch)
	// The master announced how many map outputs the run produces and
	// streams the still-missing locations as their mapdones land, those
	// queued together in one frame. The blocked recv is the await span —
	// together with the per-round fetch spans, the overlap the trace
	// assembler shows hiding under the map tail.
	for gatherErr == nil && m.Total > 0 && covered < m.Total {
		um, err := c.recv(0)
		if err != nil {
			return false
		}
		clock.mark(spanAwait)
		if um.Type != "morelocs" || um.Run != m.Run {
			gatherErr = fmt.Errorf("expected morelocs for run %s, got %q", m.Run, um.Type)
			break
		}
		if um.Message == "abort" {
			// The master wants this worker back (a map shard needs
			// retrying); acknowledge and re-enter the serve loop.
			workerTasks.With("aborted").Inc()
			_ = c.send(message{Type: "error", TaskID: m.TaskID, Message: "reduce launch called back"}, to)
			return true
		}
		noteReps(um.Reps)
		locs = append(locs, um.Locs...)
		failedAddr, gatherErr = round(um.Locs)
		clock.mark(spanFetch)
	}
	// The output leaves in chunks as the fold cuts them. A chunk that cannot
	// be sent means the master is gone: nothing is left to do.
	var lost error
	out := foldOut{cut: func(k int, chunk section, projected int64) error {
		lost = c.send(message{Type: "chunk", TaskID: m.TaskID, Attempt: m.Attempt, Folded: chunk, Total: k, Bytes: projected}, to)
		return lost
	}}
	var merged bool
	var foldErr error
	if gatherErr == nil {
		merged, foldErr = folder.fold(job, &out)
	}
	if lost != nil {
		return false
	}
	if foldErr != nil {
		// A block of a streamed section or of a run failed its check, or the
		// store closed a spill file under the merge (a put replaced the task,
		// a new run evicted it). The partial output is dropped and everything
		// gathered once more, every local copy now read whole and verified, so
		// a bad one is rerouted like any refused fetch; a second failure is
		// the task's.
		stream = false
		failovers++
		workerFailovers.Inc()
		if failedAddr, gatherErr = round(locs); gatherErr == nil {
			merged, foldErr = folder.fold(job, &out)
		}
	}
	if lost != nil {
		return false
	}
	if gatherErr != nil {
		workerTasks.With("fetch_failed").Inc()
		_ = c.send(message{Type: "error", TaskID: m.TaskID, Message: gatherErr.Error(), Fetch: failedAddr}, to)
		return true
	}
	workerShuffleBytes.Add(float64(fetched))
	if foldErr != nil {
		workerTasks.With("fold_failed").Inc()
		_ = c.send(message{Type: "error", TaskID: m.TaskID, Message: foldErr.Error()}, to)
		return true
	}
	if merged {
		clock.mark(spanMergeRuns)
	} else {
		clock.mark(spanReduce)
	}
	workerReduceSeconds.Observe(time.Since(start).Seconds())
	workerTasks.With("ok").Inc()
	res := message{
		Type: "result", TaskID: m.TaskID, Attempt: m.Attempt, Folded: out.b.section(), Total: out.k, Bytes: fetched, Trace: m.Trace,
		Failovers: failovers, Spills: folder.spillRuns, Spilled: folder.spilledBytes,
	}
	if clock != nil {
		clock.mark(spanEncode)
		res.Spans = appendSpanAfter(clock.spans, spanSpill, folder.flushDur)
	}
	workerSpillRuns.Add(float64(folder.spillRuns))
	workerSpilledBytes.Add(float64(folder.spilledBytes))
	return c.send(res, to) == nil
}
