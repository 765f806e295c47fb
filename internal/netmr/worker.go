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
	caps     []string      // capabilities advertised in the hello

	// partitions is the merge partition count granted in the helloack
	// when the master accepted the "part" capability; >1 makes this
	// worker pre-split every result by key hash before shipping it.
	// Written once by serve before any task arrives.
	partitions int

	// traced is set when the master granted the "trace" capability: every
	// shard then runs through the span-recording execution path and ships
	// its phase summaries back on the result frame. Written once by serve
	// before any task arrives.
	traced bool

	// Distributed-reduce state: reducers is the reduce partition count
	// granted in the helloack when the master accepted the "reduce"
	// capability (written once by serve before any task arrives);
	// fetchAddr is this worker's shuffle listener address (advertised in
	// the hello) and store its intermediate map-output store, which the
	// shuffle server goroutines read concurrently.
	reducers  int
	fetchAddr string
	fetchLn   net.Listener
	store     *interStore

	// fetchConns tracks the accepted shuffle-plane sockets (guarded by
	// mu) so tearing the plane down severs in-flight peers too: closing
	// only the listener refuses new dials but leaves accepted sockets —
	// and the peers' pooled connections riding them — fully alive.
	fetchConns map[net.Conn]struct{}

	// comp is set when the master granted the "comp" capability: frames
	// gain the compression flag layer and the worker replicates each
	// persisted partition set to the peer the master names on the task
	// frame (Rep) before acknowledging mapdone.
	comp bool

	// Pipelined-shuffle state: pool caches idle shuffle-plane connections
	// per peer (reused by reduce fetches and replication pushes), and
	// shuffleFanout bounds how many peers one reduce task fetches from
	// concurrently.
	pool          *shufflePool
	shuffleFanout int

	// Out-of-core configuration (WithWorkerConfig). The shuffle timeout
	// is atomic because the helloack handler may adjust it while the
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
// the fetch-server goroutines while the helloack handler updates it.
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
		scratch:       newShardScratch(),
		caps:          workerCaps(),
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

// Start connects to the master and serves tasks on a background
// goroutine. Use Stop (or closing the master) to terminate; Wait blocks
// until the serve loop exits.
func (w *Worker) Start(masterAddr string) error {
	raw, err := net.DialTimeout("tcp", masterAddr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("netmr: dial master: %w", err)
	}
	// The local endpoint is a unique, stable identity for this connection;
	// the master uses it to attribute shards, failures and RPC latency to
	// a specific worker.
	id := raw.LocalAddr().String()
	c := newConn(w.chaos.WrapConn("", raw))
	// A reduce-capable worker needs a shuffle listener before the hello
	// can advertise its address; if the listener cannot bind, the worker
	// simply does not offer reduce rather than failing to start.
	caps := w.caps
	for _, offered := range caps {
		if offered != capReduce {
			continue
		}
		if addr, lnErr := w.startFetchListener(); lnErr == nil {
			w.fetchAddr = addr
		} else {
			trimmed := make([]string, 0, len(caps)-1)
			for _, o := range caps {
				if o != capReduce {
					trimmed = append(trimmed, o)
				}
			}
			caps = trimmed
		}
		break
	}
	// The hello is always JSON; Caps advertises the binary codec and
	// batching, which the master accepts with a helloack. A master that
	// predates capabilities ignores the field and the connection simply
	// stays on JSON.
	if err := c.send(message{Type: "hello", ID: id, Jobs: w.registry.Names(), Caps: caps, Fetch: w.fetchAddr}, 5*time.Second); err != nil {
		_ = c.close()
		return err
	}
	w.mu.Lock()
	if w.stopped {
		ln := w.fetchLn
		w.mu.Unlock()
		_ = c.close()
		if ln != nil {
			_ = ln.Close()
		}
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

func (w *Worker) serve(c *conn) {
	for {
		m, err := c.recv(0) // block until the master sends work or closes
		if err != nil {
			return
		}
		switch m.Type {
		case "helloack":
			// The master accepted our capabilities; everything after
			// this frame speaks the binary codec in both directions.
			for _, accepted := range m.Caps {
				switch accepted {
				case capBinary:
					c.binary = true
				case capBinaryExt:
					c.binExt = true
				case capPartition:
					w.partitions = m.Partitions
				case capTrace:
					c.trc = true
					w.traced = true
				case capReduce:
					c.red = true
					w.reducers = m.Reducers
					w.store.setReducers(m.Reducers)
					if m.ShuffleMs > 0 {
						w.shuffleTimeoutNs.Store(int64(time.Duration(m.ShuffleMs) * time.Millisecond))
					}
				case capComp:
					c.cmp = true
					w.comp = true
				case capEarly:
					c.erl = true
				}
			}
		case "task":
			if !w.runTask(c, m.Job, m.TaskID, m.Attempt, m.Records, m.Run, m.Trace, m.Rep, c.lastDecode) {
				return
			}
		case "taskbatch":
			// One frame, several shards: each spec is executed in order
			// and answered with its own result frame. The frame's wire
			// decode happened once, so its cost is charged to the first
			// shard's decode span only.
			decode := c.lastDecode
			for i := range m.Batch {
				spec := &m.Batch[i]
				if !w.runTask(c, spec.Job, spec.TaskID, spec.Attempt, spec.Records, m.Run, m.Trace, m.Rep, decode) {
					return
				}
				decode = 0
			}
		case "reducetask":
			if !w.runReduceTask(c, m, c.lastDecode) {
				return
			}
		case "ping":
			workerPings.Inc()
			if err := c.send(message{Type: "pong"}, 5*time.Second); err != nil {
				return
			}
		default:
			// Ignore unknown frames: forward compatibility.
		}
	}
}

// runTask executes one shard and reports its result (or error) to the
// master. It returns false when the serve loop must exit: a send
// failure or an injected crash. run, when non-empty, is the persist-mode
// signal of a distributed-reduce job: the shard's output is partitioned
// by the granted reducer count, stored for peer fetches, and only a
// payload-free mapdone travels back. trace is the job trace ID stamped
// on the task frame (echoed back on the result) and decode the
// wire-decode cost of the frame that carried this shard; both are
// zero-valued on untraced connections. rep, on comp connections in
// persist mode, names the peer shuffle listener to replicate the
// partition set to before mapdone.
func (w *Worker) runTask(c *conn, jobName string, taskID, attempt int, records []string, run, trace, rep string, decode time.Duration) bool {
	job, ok := w.registry.lookup(jobName)
	if !ok {
		workerTasks.With("unknown_job").Inc()
		_ = c.send(message{Type: "error", TaskID: taskID, Message: fmt.Sprintf("unknown job %q", jobName)}, 5*time.Second)
		return true
	}
	if f := w.chaos.TaskFault("task", taskID, attempt); f.Delay > 0 || f.Crash {
		if f.Delay > 0 {
			time.Sleep(f.Delay)
		}
		if f.Crash {
			// A crashed worker dies without a word: the connection
			// closes and the master reassigns the shard.
			workerTasks.With("crashed").Inc()
			return false
		}
	}
	start := time.Now()
	var clock *spanClock
	if w.traced {
		clock = newSpanClock(decode)
	}
	if run != "" && w.reducers > 0 {
		// Persist mode: partition by the reduce count, keep the output
		// local for the reduce phase, acknowledge with a mapdone. The
		// shuffle bytes this keeps off the master are the whole point.
		// The sections built here are the ones the store holds, the
		// replica receives and the reducers fetch — nothing re-encodes.
		parts := runShardPartitioned(job, records, w.scratch, w.reducers, clock)
		putStart := time.Now()
		spills, spilled, saved, perr := w.store.put(run, taskID, parts, w.reducers)
		if perr != nil {
			// Spill failure leaves the set resident — correct, just over
			// budget; the job proceeds.
			workerSpillErrors.Inc()
		}
		putDur := time.Since(putStart)
		done := message{Type: "mapdone", TaskID: taskID, Attempt: attempt, Run: run, Trace: trace}
		var repDur time.Duration
		if c.cmp {
			done.Spills = spills
			done.Spilled = spilled
			done.CompBytes = saved
			if spills > 0 {
				workerSpillRuns.Add(float64(spills))
				workerSpilledBytes.Add(float64(spilled))
			}
			if rep != "" {
				repStart := time.Now()
				if rerr := w.pool.replicateParts(rep, run, taskID, parts, w.reducers, w.shuffleTO()); rerr == nil {
					done.Rep = rep
					workerReplications.With("ok").Inc()
				} else {
					// The named peer would not take the replica: ship the
					// set inline so the master holds it instead.
					done.Parts = parts
					workerReplications.With("failed").Inc()
				}
				repDur = time.Since(repStart)
			} else {
				// No peer qualifies: the master holds the replica.
				done.Parts = parts
			}
		}
		if clock != nil {
			done.Spans = clock.spans
			if spills > 0 {
				done.Spans = appendSpanAfter(done.Spans, spanSpill, putDur)
			}
			done.Spans = appendSpanAfter(done.Spans, spanReplicate, repDur)
		}
		workerTaskSeconds.Observe(time.Since(start).Seconds())
		workerTasks.With("ok").Inc()
		if w.closeFetchAfterMapdone {
			// Chaos hook: the shuffle plane dies — listener and accepted
			// peer sockets both, before the mapdone leaves — but the worker
			// does not, so the master keeps routing fetches here and
			// reducers must fail over to the replica addresses themselves.
			w.closeFetchPlane()
		}
		if c.send(done, 30*time.Second) != nil {
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
	res := message{TaskID: taskID, Attempt: attempt, Trace: trace}
	if w.partitions > 1 {
		// The master granted the part capability: ship the result
		// pre-split by key hash so the merge engine routes it straight to
		// its partition folders — the hashing cost moves off the master.
		res.Type, res.Parts = "presult", runShardPartitioned(job, records, w.scratch, w.partitions, clock)
	} else {
		res.Type, res.Partial = "result", runShardTraced(job, records, w.scratch, clock)
	}
	if clock != nil {
		res.Spans = clock.spans
	}
	workerTaskSeconds.Observe(time.Since(start).Seconds())
	workerTasks.With("ok").Inc()
	return c.send(res, 30*time.Second) == nil
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
