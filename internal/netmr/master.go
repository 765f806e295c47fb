package netmr

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ipso/internal/chaos"
	"ipso/internal/obs"
)

// MasterConfig tunes the master.
type MasterConfig struct {
	// TaskTimeout bounds one shard execution round-trip (default 30 s) —
	// the per-shard deadline that turns a hung worker into a retry.
	TaskTimeout time.Duration
	// MaxAttempts is how many times a shard lineage may be tried before
	// the job fails (default 3) — the Hadoop-style task re-execution
	// budget. A speculative clone starts a fresh lineage with its own
	// budget; the job fails only when a shard has no live or queued
	// launch left.
	MaxAttempts int
	// JobTimeout bounds a whole Run call (default 5 min).
	JobTimeout time.Duration
	// HeartbeatInterval, when positive, makes the master ping idle
	// workers on this period and drop the ones that do not answer —
	// detecting dead workers before a job pays a reassignment for them.
	// Zero disables heartbeats (the default).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout bounds one ping round-trip (default 5 s).
	HeartbeatTimeout time.Duration

	// RetryBaseDelay is the backoff before a failed shard's first retry
	// (default 20 ms); it doubles per attempt up to RetryMaxDelay
	// (default 2 s), with a deterministic ±RetryJitter fraction of
	// jitter (default 0.2; negative disables) seeded by RetrySeed —
	// so churned clusters do not retry in lockstep, yet a fixed seed
	// reproduces the exact delay schedule.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	RetryJitter    float64
	RetrySeed      int64

	// SpeculationInterval, when positive, makes the master check for
	// straggling shards on this period and clone them onto idle workers
	// (first result wins, the loser is discarded). Zero disables
	// speculation (the default).
	SpeculationInterval time.Duration
	// SpeculationQuantile picks the reference completion latency from
	// the shards finished so far (default 0.75); a shard is a straggler
	// when its current launch has been running longer than
	// SpeculationMultiplier (default 2) times that reference.
	SpeculationQuantile   float64
	SpeculationMultiplier float64
	// SpeculationMinObservations is how many shards must have completed
	// before the threshold is trusted (default 3).
	SpeculationMinObservations int
	// SpeculationMaxClones bounds the clones per shard (default 1).
	SpeculationMaxClones int

	// Reducers is R, the number of reduce tasks that combine a job's
	// output: workers keep their map output hash-split into R partitions
	// and answer with a mapdone, the master assigns the R partitions back
	// to the workers as reduce tasks (scheduled in the same
	// retry/backoff/speculation loop as map shards, as soon as a map
	// output is stored and no map task waits for a worker), and
	// intermediate data flows worker→worker over fetch frames. A value
	// <= 0 means GOMAXPROCS (the default).
	Reducers int

	// ShuffleTimeout bounds one worker-to-worker shuffle round-trip — a
	// reducer's fetch of a peer's stored partitions, or a mapper's
	// replication push (default 30 s). Workers learn it on the helloack.
	ShuffleTimeout time.Duration

	// Trace enables distributed job tracing: every Run stamps its trace
	// ID on the task frames, which asks the workers to report their
	// sub-phases, and assembles a JobTrace of launch-level spans and the
	// split/merge master phases, retrievable via LastTrace.
	Trace bool

	// Chaos, when set, wraps every admitted worker connection with the
	// injector's wire-level faults — the master-side half of the
	// deterministic fault plane.
	Chaos *chaos.Injector

	// Metrics is the registry master instruments register on; nil means
	// the process-wide obs.Default().
	Metrics *obs.Registry
}

func (c MasterConfig) withDefaults() MasterConfig {
	if c.TaskTimeout <= 0 {
		c.TaskTimeout = 30 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 5 * time.Second
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 20 * time.Millisecond
	}
	if c.RetryMaxDelay <= 0 {
		c.RetryMaxDelay = 2 * time.Second
	}
	if c.RetryJitter == 0 {
		c.RetryJitter = 0.2
	} else if c.RetryJitter < 0 {
		c.RetryJitter = 0
	}
	if c.SpeculationQuantile <= 0 || c.SpeculationQuantile > 1 {
		c.SpeculationQuantile = 0.75
	}
	if c.SpeculationMultiplier <= 0 {
		c.SpeculationMultiplier = 2
	}
	if c.SpeculationMinObservations <= 0 {
		c.SpeculationMinObservations = 3
	}
	if c.SpeculationMaxClones <= 0 {
		c.SpeculationMaxClones = 1
	}
	if c.ShuffleTimeout <= 0 {
		c.ShuffleTimeout = defaultShuffleTimeout
	}
	if c.Reducers <= 0 {
		c.Reducers = runtime.GOMAXPROCS(0)
	}
	return c
}

// WorkerStats is the per-worker slice of one Run: which worker did how
// much, and who caused the reassignments — so a reassignment storm is
// attributable to a machine instead of drowning in one aggregate count.
// Both counts cover both phases: a reduce task counts like a map shard.
type WorkerStats struct {
	ID            string
	ShardsRun     int           // map shards and reduce tasks this worker completed
	Reassignments int           // map shards and reduce tasks re-queued because this worker failed
	Busy          time.Duration // cumulative dispatch round-trip time
}

// Stats reports the wall-clock phase decomposition of one Run — the real
// measurements behind the IPSO workload split: the scatter+map wave and
// the reduce tasks are the parallelizable portion, the master's merge
// window the internal portion — plus the resilience ledger: how often the
// run had to retry, clone, or discard work to finish. The resilience
// counts (Reassignments, Speculations, SpecWins, Duplicates,
// Cancellations) cover both phases, map shards and reduce tasks alike,
// because one scheduling loop runs both; Completed counts map shards
// only, ReduceTasks reduce tasks only.
//
// The three walls tile the run: SplitWall + ReduceWall + MergeWall =
// TotalWall exactly on every successful run.
type Stats struct {
	Workers       int           // workers used at job start
	Shards        int           // split-phase tasks
	Completed     int           // map shards whose result is stored
	Reassignments int           // map and reduce tasks requeued (with backoff) after a launch failure
	Speculations  int           // speculative clones launched for straggling map or reduce tasks
	SpecWins      int           // map and reduce tasks won by a speculative clone
	Duplicates    int           // late sibling results of either phase discarded after completion
	Cancellations int           // in-flight launches of either phase abandoned at exit or cancellation
	SplitWall     time.Duration // scatter + parallel map (run start to the last accepted map result, the barrier)
	MergeWall     time.Duration // master merge window: last reduce result to the output handed back (Run: the union's unfinished tail)
	TotalWall     time.Duration // end-to-end wall, measured (not derived)
	PerWorker     []WorkerStats // per-worker breakdown, sorted by ID

	// Reduce accounts.
	Reducers         int           // reduce tasks the run distributed (R)
	ReduceTasks      int           // reduce tasks that delivered a partition result
	MapOutputsStored int           // winning map outputs persisted worker-side for peer fetches, a lost output's re-run too
	ShuffleBytes     int64         // intermediate bytes reducers fetched over a socket (reads from a reducer's own store count nothing)
	ReduceWall       time.Duration // barrier to last reduce result (Run: with the union overlapping it)

	// Out-of-core shuffle accounts: how much of the run's intermediate
	// state left memory (spill) and what intermediate losses cost. All
	// zero on a run that fit in memory on an all-healthy cluster.
	SpillRuns      int           // sorted spill runs workers flushed under memory pressure
	SpilledBytes   int64         // bytes of intermediate state written to spill files
	ReplicaFetches int           // fetch routings redirected to a replica after a holder died
	RecoveryWall   time.Duration // first detected intermediate loss to reduce completion

	// CompressedBytes is always 0: frames and spill blocks travel stored.
	// It stays only for the ledger's netmr.lz.bytes_saved row and goes
	// when that row does.
	CompressedBytes int64

	// Pipelined-shuffle accounts.
	EarlyReduceTasks int // reduce tasks dispatched before the map barrier
	EarlyAborts      int // reduce launches called back to free their worker for a map task
	Failovers        int // reducer fetches rerouted worker-locally to a replica
}

type workerHandle struct {
	id    string
	c     *conn
	fetch string // the worker's shuffle listener address
}

// Master coordinates a pool of connected workers.
type Master struct {
	cfg      MasterConfig
	registry *Registry
	metrics  *masterMetrics

	ln      net.Listener
	idle    chan *workerHandle
	count   atomic.Int64
	runSeq  atomic.Int64 // run ids for intermediate-output keying
	runMu   sync.Mutex   // one Run at a time
	closeMu sync.Mutex
	closed  bool
	hbStop  chan struct{}
	hbDone  chan struct{}
	obsSrv  *obs.Server

	// Health state surfaced on /healthz: evicted counts workers dropped
	// since the last clean Run, degraded marks a Run that had to lean on
	// retry/reassignment (or failed outright). Both reset when a Run
	// completes without reassignments.
	evicted  atomic.Int64
	degraded atomic.Bool

	traceSeq atomic.Int64
	traceMu  sync.Mutex
	last     *JobTrace

	// Shuffle-address liveness: which workers' shuffle listeners are
	// believed reachable. An address is marked dead when its worker is
	// dropped or when a reducer reports a failed fetch against it; the
	// reduce scheduler consults the registry per dispatch to route around
	// dead holders via replicas.
	addrMu   sync.Mutex
	addrLive map[string]bool
}

// addFetchAddr registers (or revives) a shuffle listener address.
func (m *Master) addFetchAddr(addr string) {
	m.addrMu.Lock()
	defer m.addrMu.Unlock()
	m.addrLive[addr] = true
}

// markAddrDead records that fetches against addr should not be routed.
func (m *Master) markAddrDead(addr string) {
	m.addrMu.Lock()
	defer m.addrMu.Unlock()
	if m.addrLive[addr] {
		m.addrLive[addr] = false
	}
}

// addrAlive reports whether addr is believed reachable.
func (m *Master) addrAlive(addr string) bool {
	m.addrMu.Lock()
	defer m.addrMu.Unlock()
	return m.addrLive[addr]
}

// liveAddrs returns the sorted live shuffle addresses — the candidate
// replica holders.
func (m *Master) liveAddrs() []string {
	m.addrMu.Lock()
	defer m.addrMu.Unlock()
	out := make([]string, 0, len(m.addrLive))
	for addr, live := range m.addrLive {
		if live {
			out = append(out, addr)
		}
	}
	sort.Strings(out)
	return out
}

// pickReplicaAddr chooses the replica holder for a mapper at self: the
// next live shuffle address after the mapper's own in sorted order,
// wrapping (a replica on the primary's disk would die with it). The
// ring spreads replica bytes evenly, so every reducer finds its own
// output and its predecessor's replica, 2/n of its partition, in its
// own store. Empty when the mapper is the only live worker: its output
// then lives in its store alone.
func (m *Master) pickReplicaAddr(self string) string {
	addrs := m.liveAddrs()
	at := sort.SearchStrings(addrs, self)
	for i := range addrs {
		if addr := addrs[(at+i)%len(addrs)]; addr != self {
			return addr
		}
	}
	return ""
}

// NewMaster builds a master able to run jobs from the registry. It only
// checks a Run's job name there: the workers run the job's functions, a
// lost map output included.
func NewMaster(registry *Registry, cfg MasterConfig) (*Master, error) {
	if registry == nil || len(registry.jobs) == 0 {
		return nil, errors.New("netmr: master needs a non-empty registry")
	}
	cfg = cfg.withDefaults()
	return &Master{
		cfg:      cfg,
		registry: registry,
		metrics:  newMasterMetrics(cfg.Metrics),
		idle:     make(chan *workerHandle, 1024),
		addrLive: make(map[string]bool),
	}, nil
}

// Listen binds the master to addr (use "127.0.0.1:0" for an ephemeral
// port) and accepts workers in the background. It returns the bound
// address. When HeartbeatInterval is set the idle-worker heartbeat loop
// starts here too.
func (m *Master) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("netmr: listen: %w", err)
	}
	m.ln = ln
	go m.acceptLoop(ln)
	if m.cfg.HeartbeatInterval > 0 {
		m.hbStop = make(chan struct{})
		m.hbDone = make(chan struct{})
		go m.heartbeatLoop()
	}
	return ln.Addr().String(), nil
}

// ServeObservability starts an HTTP endpoint exposing the master's
// metrics registry at /metrics (Prometheus text format) and a health
// document at /healthz. It returns the bound address; Close stops it.
func (m *Master) ServeObservability(addr string) (string, error) {
	srv, err := obs.Serve(addr, m.metrics.registry, func() map[string]any {
		status := "ok"
		evicted := m.evicted.Load()
		degraded := m.degraded.Load()
		if evicted > 0 || degraded {
			status = "degraded"
		}
		return map[string]any{
			"status":          status,
			"workers":         m.WorkerCount(),
			"workers_evicted": evicted,
			"degraded":        degraded,
			"jobs":            m.registry.Names(),
		}
	})
	if err != nil {
		return "", err
	}
	m.obsSrv = srv
	return srv.Addr, nil
}

func (m *Master) acceptLoop(ln net.Listener) {
	for {
		raw, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		go m.admit(raw)
	}
}

// admit completes one worker's handshake: read the hello (and with it
// the preamble: a peer of another version is refused there), answer with
// the cluster's values, and put the handle in the idle pool. The shuffle
// address and the worker count are registered before the handle becomes
// visible — a Run that draws it must find both — and withdrawn if the
// helloack cannot be sent, the pool is full or the master is closed.
func (m *Master) admit(raw net.Conn) {
	c := newConn(m.cfg.Chaos.WrapConn("", raw))
	hello, err := c.recv(10 * time.Second)
	if err != nil || hello.Type != "hello" || hello.ID == "" || hello.Fetch == "" {
		_ = c.close()
		return
	}
	w := &workerHandle{id: hello.ID, c: c, fetch: hello.Fetch}
	m.addFetchAddr(w.fetch)
	m.count.Add(1)
	ack := message{Type: "helloack", Reducers: m.cfg.Reducers, ShuffleMs: m.cfg.ShuffleTimeout.Milliseconds()}
	admitted := c.send(ack, 10*time.Second) == nil
	if admitted {
		// Under closeMu, so Close cannot drain the pool between the check
		// and the send: a handle put there after Close would never close.
		m.closeMu.Lock()
		if m.closed {
			admitted = false
		} else {
			select {
			case m.idle <- w:
			default:
				admitted = false // pool full
			}
		}
		m.closeMu.Unlock()
	}
	if !admitted {
		m.markAddrDead(w.fetch)
		m.count.Add(-1)
		_ = c.close()
		return
	}
	m.metrics.workersJoined.Inc()
	m.metrics.workers.Set(float64(m.count.Load()))
}

// dropWorker closes a failed worker's connection and updates the
// population accounting. Every eviction marks the master degraded on
// /healthz until a Run completes cleanly on the surviving population.
func (m *Master) dropWorker(w *workerHandle) {
	_ = w.c.close()
	m.markAddrDead(w.fetch)
	m.count.Add(-1)
	m.evicted.Add(1)
	m.metrics.workersLost.Inc()
	m.metrics.workers.Set(float64(m.count.Load()))
}

// LastTrace returns the JobTrace of the most recent (possibly still
// running) traced Run, or nil when MasterConfig.Trace is off or no job
// has run yet.
func (m *Master) LastTrace() *JobTrace {
	m.traceMu.Lock()
	defer m.traceMu.Unlock()
	return m.last
}

// heartbeatLoop pings every currently idle worker once per interval and
// drops the ones that fail, so dead connections are discovered while the
// master is between jobs rather than as mid-job reassignments.
func (m *Master) heartbeatLoop() {
	defer close(m.hbDone)
	ticker := time.NewTicker(m.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.hbStop:
			return
		case <-ticker.C:
		}
		// Take a snapshot of the currently idle workers; ping each and
		// return the healthy ones. Workers grabbed here are simply not
		// available for dispatch until their ping round-trip completes.
		for _, w := range m.drainIdle() {
			if m.ping(w) {
				m.metrics.heartbeats.With("ok").Inc()
				m.idle <- w
			} else {
				m.metrics.heartbeats.With("failed").Inc()
				m.dropWorker(w)
			}
		}
	}
}

// drainIdle takes every worker the idle pool holds right now.
func (m *Master) drainIdle() []*workerHandle {
	var batch []*workerHandle
	for {
		select {
		case w := <-m.idle:
			batch = append(batch, w)
		default:
			return batch
		}
	}
}

func (m *Master) ping(w *workerHandle) bool {
	if err := w.c.send(message{Type: "ping"}, m.cfg.HeartbeatTimeout); err != nil {
		return false
	}
	reply, err := w.c.recv(m.cfg.HeartbeatTimeout)
	return err == nil && reply.Type == "pong"
}

// WorkerCount returns the number of admitted workers not yet lost.
func (m *Master) WorkerCount() int { return int(m.count.Load()) }

// WaitForWorkers blocks until at least n workers have joined or the
// timeout expires.
func (m *Master) WaitForWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for m.WorkerCount() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("netmr: only %d of %d workers joined within %v", m.WorkerCount(), n, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// perWorkerLedger accumulates the Run's per-worker breakdown; dispatch
// goroutines report into it concurrently.
type perWorkerLedger struct {
	mu sync.Mutex
	by map[string]*WorkerStats
}

// book charges worker id busy time for a launch that completed, or for
// one it failed, which counts as a reassignment.
func (l *perWorkerLedger) book(id string, busy time.Duration, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ws := l.by[id]
	if ws == nil {
		ws = &WorkerStats{ID: id}
		l.by[id] = ws
	}
	if ok {
		ws.ShardsRun++
	} else {
		ws.Reassignments++
	}
	ws.Busy += busy
}

func (l *perWorkerLedger) snapshot() []WorkerStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]WorkerStats, 0, len(l.by))
	for _, ws := range l.by {
		out = append(out, *ws)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// launchDone is a successful launch's report back to the scheduling loop:
// a map task's persisted output (mapdone — the payload stayed on the
// worker, whose shuffle address rides along), or the end of a reduce
// task's output stream, whose chunks are in the run's outputs already,
// with bytes carrying the shuffle volume the reducer reported.
type launchDone struct {
	task      shardTask
	fetchAddr string
	repAddr   string // peer holding the replica of a stored output ("" = none)
	bytes     int64
	spills    int   // spill runs the launch flushed under memory pressure
	spilled   int64 // bytes those runs wrote
	failovers int   // fetches the reducer rerouted to a replica locally
	elapsed   time.Duration
	launch    int // trace launch ordinal, -1 when the run is untraced
}

// Run scatters records into shards across the connected workers, has
// reduce tasks on the workers combine their partitioned output, and
// returns the reduced result with the phase timings. Reduce must be
// associative and commutative over its values (it is applied both as the
// workers' map-side combiner and as the reducers' fold).
//
// Failure handling: a launch that errors or times out is requeued with
// capped exponential backoff and deterministic jitter, up to MaxAttempts
// per lineage; the job degrades gracefully onto the surviving workers
// and fails only when a task runs out of live launches and budget (the
// last launch error is wrapped in the returned error) or every worker is
// gone. With SpeculationInterval set, tasks running far beyond the
// completion-latency quantile are cloned onto idle workers; the first
// result wins and late siblings are discarded exactly once (counted in
// Stats.Duplicates). Cancelling ctx aborts the job between events,
// abandoning in-flight launches (counted in Stats.Cancellations), and
// returns the context's error; the JobTimeout deadline applies on top.
// When ctx carries an obs recorder, the split, reduce and merge phases
// are recorded as spans ("map", "reduce" and "merge" in the trace
// vocabulary).
func (m *Master) Run(ctx context.Context, jobName string, records []string, shards int) (map[string]float64, Stats, error) {
	var out map[string]float64
	_, stats, err := m.run(ctx, jobName, records, shards, &out)
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// RunResult is Run for callers that do not need the output as one map:
// the Result holds the reducers' chunks as they arrived, and the
// master's merge window shrinks to nothing.
func (m *Master) RunResult(ctx context.Context, jobName string, records []string, shards int) (*Result, Stats, error) {
	return m.run(ctx, jobName, records, shards, nil)
}

// run is Run and RunResult. A non-nil asMap receives the output as one
// map, built while the reducers stream it; what is left of that union
// when the last result lands is in the merge window — span, trace phase,
// Stats.MergeWall.
func (m *Master) run(ctx context.Context, jobName string, records []string, shards int, asMap *map[string]float64) (result *Result, stats Stats, err error) {
	m.runMu.Lock()
	defer m.runMu.Unlock()
	defer func() {
		status := "ok"
		if err != nil {
			status = "error"
		}
		m.metrics.jobs.With(status).Inc()
		// Health: a clean run (no failures, no reassignments) proves the
		// current population healthy again; a run that needed retries or
		// failed outright is running in graceful degradation.
		if err == nil && stats.Reassignments == 0 {
			m.degraded.Store(false)
			m.evicted.Store(0)
		} else {
			m.degraded.Store(true)
		}
	}()

	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	if _, ok := m.registry.lookup(jobName); !ok {
		return nil, Stats{}, fmt.Errorf("netmr: unknown job %q", jobName)
	}
	if shards < 1 {
		return nil, Stats{}, fmt.Errorf("netmr: shards %d must be >= 1", shards)
	}
	if m.ln == nil {
		return nil, Stats{}, errors.New("netmr: master is not listening")
	}
	stats = Stats{Workers: m.WorkerCount(), Shards: shards}
	if stats.Workers == 0 {
		return nil, Stats{}, errors.New("netmr: no workers connected")
	}
	r := m.newJobRun(jobName, records, shards, &stats)
	defer func() { stats.PerWorker = r.ledger.snapshot() }()
	defer r.release() // every error exit; a successful run released already

	// The job trace opens a launch span at every dispatch and is sealed
	// on every exit path, so no retry, speculation or cancellation
	// ordering can leave a span open in the dump.
	if m.cfg.Trace {
		r.trc = newJobTrace(jobName, int(m.traceSeq.Add(1)))
		m.traceMu.Lock()
		m.last = r.trc
		m.traceMu.Unlock()
		defer r.trc.seal()
	}
	// Run's callers are owed one map, which a goroutine builds from each
	// chunk as it is taken (O(keys) inserts, no Reduce/Combine calls).
	var union chan map[string]float64
	if asMap != nil {
		union = make(chan map[string]float64, 1)
		quit := make(chan struct{})
		defer close(quit)
		go func() { union <- r.out.union(quit) }()
	}

	r.start = time.Now()
	_, r.mapSpan = obs.StartSpan(ctx, "map")
	deadline := time.NewTimer(m.cfg.JobTimeout)
	defer deadline.Stop()
	err = m.schedule(ctx, r, deadline.C)
	if r.barrier.IsZero() {
		return nil, stats, err
	}
	r.reduceSpan.End()
	reduceEnd := time.Now()
	stats.ReduceWall = reduceEnd.Sub(r.barrier)
	m.metrics.reduceSeconds.Observe(stats.ReduceWall.Seconds())
	m.metrics.shuffleBytes.Add(float64(stats.ShuffleBytes))
	r.trc.addPhase("reduce", r.barrier, reduceEnd)
	if err != nil {
		return nil, stats, err
	}
	if !r.recoveryAt.IsZero() {
		stats.RecoveryWall = reduceEnd.Sub(r.recoveryAt)
		m.metrics.recoverySeconds.Observe(stats.RecoveryWall.Seconds())
	}
	_, mergeSpan := obs.StartSpan(ctx, "merge")
	r.release() // the workers' reclaim overlaps the union's tail
	if asMap != nil {
		*asMap = <-union
	}
	mergeSpan.End()
	end := time.Now()
	r.trc.addPhase("merge", reduceEnd, end)
	stats.MergeWall = end.Sub(reduceEnd)
	stats.TotalWall = end.Sub(r.start)
	m.metrics.mergeSeconds.Observe(stats.MergeWall.Seconds())
	return &Result{parts: r.out.chunks}, stats, nil
}

// jobRun is one Run's state: the job's name and input, the stats, trace
// and per-worker ledger, the task graph the scheduling loop runs, and the
// shuffle's routing state.
type jobRun struct {
	m       *Master
	name    string
	runID   string // keys the run's intermediate output on the workers
	records []string
	shards  int
	stats   *Stats
	ledger  *perWorkerLedger
	trc     *JobTrace // nil when the run is untraced

	// The task graph: its two phases, where every launch of either
	// reports, and the window walls — the barrier is the map output
	// accepted when no other map task was pending, zero before it.
	maps, reduces       *phase
	results             chan launchDone
	fails               chan launchFail
	start, barrier      time.Time
	mapSpan, reduceSpan *obs.Span

	// Whose shuffle listener holds each located map output (mapLocs) and
	// where its peer replica lives, when its mapper's push succeeded
	// (replicaLocs). An output with neither alive is a map task to run
	// again (reopen).
	mapLocs     map[int]string
	replicaLocs map[int]string
	out         *outputs    // the reduce partitions' output streams
	over        atomic.Bool // the run is released: its intermediates are gone
	recoveryAt  time.Time   // first dispatch that routed around a lost intermediate

	// streams holds the location stream of each reduce launch still
	// awaiting map outputs; calledBack the streams of the launches called
	// back that have not reported.
	streams    map[*locStream]bool
	calledBack map[*locStream]bool
}

// shardRecords is shard id's slice of the input.
func (r *jobRun) shardRecords(id int) []string {
	lo := len(r.records) * id / r.shards
	hi := len(r.records) * (id + 1) / r.shards
	return r.records[lo:hi]
}

// mapPhase is the map shards' phase: small shards share a frame (see
// batchBytes).
func (r *jobRun) mapPhase() *phase {
	ph := newPhase(r.shards, "task", "shard")
	ph.weigh = func(id, room int) int {
		n := 0
		for _, rec := range r.shardRecords(id) {
			if n += len(rec); n > room {
				break
			}
		}
		return n
	}
	ph.launch = func(w *workerHandle, batch []shardTask, launches []int) {
		r.m.metrics.shards.Add(float64(len(batch)))
		go r.dispatchMap(w, batch, launches)
	}
	ph.accept = r.accept
	return ph
}

// dispatchMap ships one or several shards to a worker in one taskbatch
// frame. The Run stamp keys the output the worker keeps, and Rep names it
// a replica peer — the next live shuffle listener after its own — so its
// partitions survive the worker; with no eligible peer Rep is empty and
// the output lives in the worker's store alone. The worker answers one
// mapdone per shard in order, several in one write when their shards ran
// quickly, and each is reported individually, so a conn failure
// mid-batch fails exactly the still-unacknowledged shards. Each shard has
// TaskTimeout: the first answer may take the whole batch's.
func (r *jobRun) dispatchMap(w *workerHandle, tasks []shardTask, launches []int) {
	m := r.m
	rep := m.pickReplicaAddr(w.fetch)
	start := time.Now()
	specs := make([]taskSpec, len(tasks))
	for i, t := range tasks {
		specs[i] = taskSpec{Job: r.name, TaskID: t.id, Attempt: t.attempts, Records: r.shardRecords(t.id)}
	}
	err := w.c.send(message{Type: "taskbatch", Batch: specs, Run: r.runID, Rep: rep, Trace: r.trc.frameID()}, m.cfg.TaskTimeout)
	dones := make([]launchDone, 0, len(tasks))
	var spans [][]spanSummary // per answer, traced runs only
	// book reports the answers read since the last call, which left the
	// worker in one write. Each shard's latency runs from the dispatch,
	// the clock speculation reads; the time since the previous write is
	// charged once, to the worker's ledger and to the trace (closeBatch).
	booked, prev, traced := 0, start, 0.0
	book := func() {
		now := time.Now()
		if launches != nil {
			traced = r.trc.closeBatch(launches[booked:len(dones)], outcomeOK, spans[booked:], traced)
		}
		busy := now.Sub(prev)
		prev = now
		for ; booked < len(dones); booked++ {
			d := dones[booked]
			d.elapsed = now.Sub(start)
			m.metrics.rpcSeconds.With(w.id).Observe(d.elapsed.Seconds())
			r.ledger.book(w.id, busy, true)
			busy = 0
			r.results <- d
			if booked == len(tasks)-1 {
				// Back to the pool after the last report, so the loop
				// applies it before it hands the worker on: a map report
				// cannot end the run, as a reduce report can.
				m.idle <- w
			}
		}
	}
	for err == nil && len(dones) < len(tasks) {
		t := tasks[len(dones)]
		var reply message
		reply, err = w.c.recv(m.cfg.TaskTimeout * time.Duration(len(tasks)-len(dones)))
		if err == nil && (reply.Type != "mapdone" || reply.TaskID != t.id) {
			err = fmt.Errorf("netmr: worker %s answered shard %d with %q (task %d)", w.id, t.id, reply.Type, reply.TaskID)
		}
		if err != nil {
			break
		}
		dones = append(dones, launchDone{
			task: t, fetchAddr: w.fetch,
			repAddr: reply.Rep, spills: reply.Spills, spilled: reply.Spilled,
			launch: launchOf(launches, len(dones)),
		})
		if launches != nil {
			spans = append(spans, reply.Spans)
		}
		// Bytes already read past this answer are the next one's: it
		// left in the same write, so the two are booked together.
		if len(dones) == len(tasks) || w.c.r.Buffered() == 0 {
			book()
		}
	}
	if booked < len(dones) {
		book()
	}
	if err != nil {
		// Lost or misbehaving worker: drop it, then fail every shard it
		// still owed a result for — in that order, so the loop's
		// all-workers-lost check already counts it gone.
		m.dropWorker(w)
		elapsed := time.Since(prev)
		for i := booked; i < len(tasks); i++ {
			launch := launchOf(launches, i)
			r.lost(w, elapsed, launch)
			r.fails <- launchFail{task: tasks[i], err: err, launch: launch}
			elapsed = 0 // the round-trip is charged once
		}
	}
}

// lost books a launch its worker failed: charged to the worker as a
// reassignment, its trace launch closed failed.
func (r *jobRun) lost(w *workerHandle, elapsed time.Duration, launch int) {
	r.ledger.book(w.id, elapsed, false)
	r.m.metrics.reassignments.With(w.id).Inc()
	r.trc.closeLaunch(launch, outcomeFailed, nil)
}

// Close stops accepting workers, halts the heartbeat loop and the
// observability endpoint, and closes all idle connections. Workers
// blocked waiting for tasks observe EOF and exit.
func (m *Master) Close() {
	m.closeMu.Lock()
	defer m.closeMu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	if m.hbStop != nil {
		close(m.hbStop)
		<-m.hbDone
	}
	if m.obsSrv != nil {
		_ = m.obsSrv.Close()
	}
	if m.ln != nil {
		m.ln.Close()
	}
	for _, w := range m.drainIdle() {
		_ = w.c.close()
		m.count.Add(-1)
		m.metrics.workers.Set(float64(m.count.Load()))
	}
}
