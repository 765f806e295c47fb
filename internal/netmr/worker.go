package netmr

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ipso/internal/chaos"
)

// Worker connects to a master and executes shards of registered jobs
// until the connection closes or Stop is called. One worker handles one
// task at a time — the "one container per processing unit" configuration
// of the paper's experiments.
type Worker struct {
	registry *Registry
	chaos    *chaos.Injector
	scratch  *shardScratch // reused across every shard this worker runs

	// reducers is the cluster's reduce partition count R from the
	// helloack, written once by Start before any task arrives: a map task
	// splits its output by R and keeps it here for the reduce phase.
	reducers int

	// fetchAddr is this worker's shuffle listener address (advertised in
	// the hello) and store its intermediate map-output store, which the
	// shuffle server goroutines read concurrently.
	fetchAddr string
	fetchLn   net.Listener
	store     *interStore

	// fetchConns tracks the accepted shuffle-plane sockets (guarded by
	// mu) so tearing the plane down severs in-flight peers too: closing
	// only the listener refuses new dials but leaves accepted sockets —
	// and the peers' pooled connections riding them — fully alive.
	fetchConns map[net.Conn]struct{}

	// pool caches idle shuffle-plane connections
	// per peer (reused by reduce fetches and replication pushes), and
	// shuffleFanout bounds how many peers one reduce task fetches from
	// concurrently.
	pool          *shufflePool
	shuffleFanout int

	// Out-of-core configuration (WithWorkerConfig). The shuffle timeout
	// is atomic because Start adopts the helloack's while the
	// fetch-listener goroutines are already serving peers.
	shuffleTimeoutNs atomic.Int64
	spillBudget      int64
	spillDir         string

	// killAfterMapdone is a test hook: after the first successful
	// mapdone the worker tears its shuffle listener down and dies, the
	// "mapper lost mid-shuffle" chaos scenario.
	killAfterMapdone bool

	// closeFetchAfterMapdone is a milder test hook: as it sends its first
	// mapdone the worker closes only its shuffle listener but
	// stays alive and keeps mapping. The master still routes fetches at
	// the primary, so reducers must fail over to the replica addresses
	// on their own — the worker-local failover scenario.
	closeFetchAfterMapdone bool

	// onRelease is a test hook: it runs on the serve goroutine as a
	// release frame arrives, before the store frees the run.
	onRelease func()

	mu      sync.Mutex
	netConn net.Conn
	stopped bool
	done    chan struct{}
}

// WorkerOption configures a Worker at construction.
type WorkerOption func(*Worker)

// WithChaos attaches a fault injector: the worker's connection gains
// wire-level faults (latency, drops, corruption, partitions) and every
// task attempt consults TaskFault for injected execution latency and
// crashes — the knobs that manufacture stragglers and churn on demand.
func WithChaos(in *chaos.Injector) WorkerOption {
	return func(w *Worker) { w.chaos = in }
}

// WorkerConfig is the out-of-core shuffle tuning of one worker.
type WorkerConfig struct {
	// ShuffleTimeout bounds one shuffle round-trip (fetch or replicate).
	// Zero means the 30s default; the master's helloack may lower or
	// raise it cluster-wide.
	ShuffleTimeout time.Duration
	// SpillBudget bounds the bytes of intermediate state kept resident —
	// both the map-output store and each reduce task's gather buffer.
	// Zero keeps everything in memory (the previous behavior).
	SpillBudget int64
	// SpillDir is the scratch root for spill files; empty means the OS
	// temp dir. Files live under <SpillDir>/netmr-spill/<run>/.
	SpillDir string
	// ShuffleFanout bounds how many peers one reduce task fetches from
	// concurrently; it also caps the idle connections the shuffle pool
	// keeps per peer. Zero means the default (4); 1 gathers serially.
	ShuffleFanout int
}

// WithWorkerConfig applies out-of-core shuffle settings.
func WithWorkerConfig(cfg WorkerConfig) WorkerOption {
	return func(w *Worker) {
		if cfg.ShuffleTimeout > 0 {
			w.shuffleTimeoutNs.Store(int64(cfg.ShuffleTimeout))
		}
		w.spillBudget = cfg.SpillBudget
		w.spillDir = cfg.SpillDir
		if cfg.ShuffleFanout > 0 {
			w.shuffleFanout = cfg.ShuffleFanout
		}
	}
}

// shuffleTO is the current shuffle round-trip bound, safe to read from
// the fetch-server goroutines while Start updates it.
func (w *Worker) shuffleTO() time.Duration {
	return time.Duration(w.shuffleTimeoutNs.Load())
}

// NewWorker builds a worker executing jobs from the registry.
func NewWorker(registry *Registry, opts ...WorkerOption) (*Worker, error) {
	if registry == nil || len(registry.jobs) == 0 {
		return nil, errors.New("netmr: worker needs a non-empty registry")
	}
	w := &Worker{
		registry:      registry,
		scratch:       new(shardScratch),
		store:         newInterStore(),
		shuffleFanout: defaultShufflePoolPerPeer,
		fetchConns:    make(map[net.Conn]struct{}),
		done:          make(chan struct{}),
	}
	w.shuffleTimeoutNs.Store(int64(defaultShuffleTimeout))
	for _, opt := range opts {
		opt(w)
	}
	w.store.configure(w.spillBudget, w.spillDir)
	w.pool = newShufflePool(w.shuffleFanout)
	return w, nil
}

// StoreStats reports the intermediate store's high-water resident bytes
// and cumulative spill volume — what a budget-constrained run asserts
// it never exceeded its budget with.
func (w *Worker) StoreStats() (peakBytes, spilledBytes int64, spillRuns int) {
	return w.store.stats()
}

// Start binds the shuffle listener, connects to the master, completes
// the hello/helloack exchange and then serves tasks on a background
// goroutine. It fails when the listener cannot bind, when the master
// cannot be reached, or when the master speaks another protocol version
// (the error names both). Use Stop (or closing the master) to terminate;
// Wait blocks until the serve loop exits.
func (w *Worker) Start(masterAddr string) (err error) {
	// The hello advertises the shuffle listener, so it binds first.
	if w.fetchAddr, err = w.startFetchListener(); err != nil {
		return err
	}
	defer func() {
		if err != nil {
			w.closeFetchPlane()
		}
	}()
	raw, err := net.DialTimeout("tcp", masterAddr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("netmr: dial master: %w", err)
	}
	// The local endpoint is a unique, stable identity for this connection;
	// the master uses it to attribute shards, failures and RPC latency to
	// a specific worker.
	id := raw.LocalAddr().String()
	c := newConn(w.chaos.WrapConn("", raw))
	ack, err := w.handshake(c, id)
	if err != nil {
		_ = c.close()
		return err
	}
	w.reducers = ack.Reducers
	w.store.setReducers(ack.Reducers)
	if ack.ShuffleMs > 0 {
		// The shuffle deadline is the cluster's, so every worker agrees on
		// when a fetch has hung.
		w.shuffleTimeoutNs.Store(int64(time.Duration(ack.ShuffleMs) * time.Millisecond))
	}
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		_ = c.close()
		return errors.New("netmr: worker already stopped")
	}
	w.netConn = raw
	w.mu.Unlock()

	go func() {
		defer close(w.done)
		defer func() { _ = c.close() }()
		w.serve(c)
	}()
	return nil
}

// handshake sends the hello and waits for the master's helloack.
func (w *Worker) handshake(c *conn, id string) (message, error) {
	if err := c.send(message{Type: "hello", ID: id, Jobs: w.registry.Names(), Fetch: w.fetchAddr}, 5*time.Second); err != nil {
		return message{}, err
	}
	ack, err := c.recv(10 * time.Second)
	if err != nil {
		return message{}, err
	}
	if ack.Type != "helloack" {
		return message{}, fmt.Errorf("netmr: master answered the hello with %q", ack.Type)
	}
	return ack, nil
}

func (w *Worker) serve(c *conn) {
	for {
		m, err := c.recv(0) // block until the master sends work or closes
		if err != nil || !w.handle(c, m) {
			return
		}
	}
}

// handle executes one frame from the master. It returns false when the
// serve loop must exit.
func (w *Worker) handle(c *conn, m message) bool {
	switch m.Type {
	case "taskbatch":
		return w.runBatch(c, &m)
	case "reducetask":
		return w.runReduceTask(c, m, c.lastDecode)
	case "ping":
		workerPings.Inc()
		return c.send(message{Type: "pong"}, 5*time.Second) == nil
	case "release": // nothing is answered
		if w.onRelease != nil {
			w.onRelease()
		}
		w.store.release(m.Run)
	default:
		// Ignore unknown frames.
	}
	return true
}

// flushAfter bounds how long finished shards of a task frame wait for
// their mates: once the shards mapped since the last answers have run
// this long, their answers leave before the next shard starts. It is the
// map work of a batchBytes batch at the slower map kernel's rate, on
// which the ~50 µs an answer write and a replica round trip cost is
// 2–3 %; shards that cost more per byte than the kernels, as the test
// suite's sleeper job's do, then answer one by one. A shard that finishes
// sooner still waits on the mate after it.
const flushAfter = 2 * time.Millisecond

// runBatch runs the shards of one task frame in order (mapShard) and
// answers them, the shards mapped within flushAfter of each other
// together (answer). run (the frame's Run) keys the stored output; with a
// trace ID the shards record their phases, the first charged the frame's
// wire decode. It returns false when the serve loop must exit: a send
// failure or an injected crash, which still answers the shards before it.
func (w *Worker) runBatch(c *conn, m *message) bool {
	replies := make([]message, 0, len(m.Batch))
	decode, since := c.lastDecode, time.Now()
	for i := range m.Batch {
		reply, ok := w.mapShard(&m.Batch[i], m.Run, m.Trace, decode)
		if !ok {
			if len(replies) > 0 {
				w.answer(c, m, replies)
			}
			return false
		}
		decode = 0
		replies = append(replies, reply)
		if i == len(m.Batch)-1 || time.Since(since) >= flushAfter {
			if !w.answer(c, m, replies) {
				return false
			}
			replies, since = replies[:0], time.Now()
		}
	}
	return true
}

// answer sends the answers of shards mapped back to back. Their stored
// partition sets go to the replica peer m.Rep in one exchange, and the
// answers leave in one write, one per shard in order, each naming the
// peer in Rep if it took the set; no answer carries a set. With a trace
// ID the shared push is the last pushed shard's replicate span. It
// returns false when the serve loop must exit.
func (w *Worker) answer(c *conn, m *message, replies []message) bool {
	var outs []message
	var pushed []int // the replies of outs
	for i := range replies {
		if d := &replies[i]; d.Type == "mapdone" {
			if m.Rep != "" {
				outs = append(outs, message{Type: "replicate", Run: m.Run, TaskID: d.TaskID, Parts: d.Parts, Reducers: w.reducers})
				pushed = append(pushed, i)
			}
			d.Parts = nil
		}
	}
	if len(outs) > 0 {
		repStart := time.Now()
		for i, err := range w.pool.replicate(m.Rep, outs, w.shuffleTO()) {
			if err == nil {
				replies[pushed[i]].Rep = m.Rep
				workerReplications.With("ok").Inc()
			} else {
				// The named peer would not take the replica: the output
				// lives in this worker's store alone.
				workerReplications.With("failed").Inc()
			}
		}
		if last := &replies[pushed[len(pushed)-1]]; m.Trace != "" {
			last.Spans = appendSpanAfter(last.Spans, spanReplicate, time.Since(repStart))
		}
	}
	if w.closeFetchAfterMapdone {
		// Chaos hook: the shuffle plane dies — listener and accepted
		// peer sockets both, before the mapdones leave — but the worker
		// does not, so the master keeps routing fetches here and
		// reducers must fail over to the replica addresses themselves.
		w.closeFetchPlane()
	}
	if c.sendFrames(replies, 30*time.Second) != nil {
		return false
	}
	if w.killAfterMapdone {
		// Chaos hook: die right after acknowledging the map output,
		// taking the shuffle plane — and the only primary copy —
		// with us.
		w.closeFetchPlane()
		w.store.evictAll()
		return false
	}
	return true
}

// mapShard executes one shard and returns its answer: a mapdone, its
// output stored under run and split by the reducer count, carrying the
// partition set for answer's replica push only; or an error frame
// for a shard this worker cannot run. ok is false when an injected crash
// kills the worker. trace, when non-empty, makes the shard record its
// phases, decode being the wire-decode cost charged to it.
func (w *Worker) mapShard(spec *taskSpec, run, trace string, decode time.Duration) (reply message, ok bool) {
	taskID := spec.TaskID
	job, found := w.registry.lookup(spec.Job)
	if !found {
		workerTasks.With("unknown_job").Inc()
		return message{Type: "error", TaskID: taskID, Message: fmt.Sprintf("unknown job %q", spec.Job)}, true
	}
	if run == "" || w.reducers <= 0 {
		// Without a run id there is no key to store the output under, and
		// before a helloack no reducer count to partition it by: such a
		// map task has no valid reply but a refusal.
		cause := "has no run id"
		if run != "" {
			cause = "arrived before a helloack set the reducer count"
		}
		return message{Type: "error", TaskID: taskID, Message: fmt.Sprintf("map task %d %s", taskID, cause)}, true
	}
	if f := w.chaos.TaskFault("task", taskID, spec.Attempt); f.Delay > 0 || f.Crash {
		if f.Delay > 0 {
			time.Sleep(f.Delay)
		}
		if f.Crash {
			// A crashed worker dies without a word: the connection
			// closes and the master reassigns the shard.
			workerTasks.With("crashed").Inc()
			return message{}, false
		}
	}
	start := time.Now()
	var clock *spanClock
	if trace != "" {
		clock = newSpanClock(decode)
	}
	// The sections built here are the ones the store holds, the replica
	// receives and the reducers fetch — nothing re-encodes. The shuffle
	// bytes this keeps off the master are the whole point.
	parts := runShardPartitioned(job, spec.Records, w.scratch, w.reducers, clock)
	putStart := time.Now()
	spills, spilled, perr := w.store.put(run, taskID, parts, w.reducers)
	if perr != nil && !errors.Is(perr, errRunLeft) {
		// Spill failure leaves the set resident — correct, just over
		// budget; the job proceeds. A refused put is a finished run's.
		workerSpillErrors.Inc()
	}
	reply = message{Type: "mapdone", TaskID: taskID, Attempt: spec.Attempt, Run: run, Trace: trace,
		Parts: parts, Spills: spills, Spilled: spilled}
	if spills > 0 {
		workerSpillRuns.Add(float64(spills))
		workerSpilledBytes.Add(float64(spilled))
	}
	if clock != nil {
		reply.Spans = clock.spans
		if spills > 0 {
			reply.Spans = appendSpanAfter(reply.Spans, spanSpill, time.Since(putStart))
		}
	}
	workerTaskSeconds.Observe(time.Since(start).Seconds())
	workerTasks.With("ok").Inc()
	return reply, true
}

// Stop closes the connection and waits for the serve loop to exit. It is
// safe to call before Start (the worker then refuses to start) and more
// than once.
func (w *Worker) Stop() {
	w.mu.Lock()
	already := w.stopped
	w.stopped = true
	nc := w.netConn
	w.mu.Unlock()
	w.closeFetchPlane()
	if nc != nil {
		nc.Close()
	}
	if nc != nil && !already {
		<-w.done
	}
	// Release the intermediate store — spill files included — now that
	// no task can touch it; late shuffle fetches get refusals.
	w.store.evictAll()
	w.pool.closeAll()
}
