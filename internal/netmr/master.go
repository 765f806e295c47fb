package netmr

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"strconv"
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

	// Partitions is the merge partition count P: workers are told P in
	// the helloack and ship every shard result hash-split into P key
	// ranges, each folded on the master by its own goroutine while the map
	// phase drains and finalized in parallel. Zero defaults to GOMAXPROCS;
	// 1 keeps the merge single-partition (still map-overlapped).
	Partitions int
	// SerialMerge restores the pre-partitioning merge: wait at the split
	// barrier, then fold every partial through one goroutine. It exists
	// to measure exactly what the overlapped merge buys (benchmarks diff
	// the two) and as a conservative fallback. It also disables the
	// distributed reduce phase (Reducers).
	SerialMerge bool

	// Reducers, when positive, promotes reduce to a distributed phase
	// with R = Reducers reduce tasks: workers persist their partitioned
	// map output locally and answer with a mapdone, the master assigns the
	// R partitions back to the workers as reduce tasks (scheduled through
	// the same retry/backoff/speculation loop as map shards), and
	// intermediate data flows worker→worker over fetch frames. It forces
	// Partitions = Reducers (the two phases must agree on the key hash
	// space). Zero (the default) keeps the reduce on the master.
	Reducers int

	// ShuffleTimeout bounds one worker-to-worker shuffle round-trip — a
	// reducer's fetch of a peer's stored partitions, or a mapper's
	// replication push (default 30 s). Workers learn it on the helloack.
	ShuffleTimeout time.Duration

	// EarlyShuffle, when true (and Reducers is set), lets the master
	// dispatch reduce tasks before the map barrier: once the first map
	// output lands, idle workers receive a reducetask announcing the
	// run's total map count, and the locations of later outputs stream to
	// them over morelocs frames as their mapdones land — so fetch time
	// hides under the map tail instead of serializing behind the barrier.
	// The job output is byte-identical either way.
	EarlyShuffle bool

	// MaxTaskBatch caps how many ready shards one dispatch may pack
	// into a single taskbatch frame (default 1: every shard travels in
	// its own frame). Batching amortizes the per-frame framing
	// and syscall cost when shards are small; the worker still answers
	// one result frame per shard, so retry, speculation and accounting
	// see individual shards throughout.
	MaxTaskBatch int

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
	if c.MaxTaskBatch <= 0 {
		c.MaxTaskBatch = 1
	}
	if c.ShuffleTimeout <= 0 {
		c.ShuffleTimeout = defaultShuffleTimeout
	}
	if c.Partitions <= 0 {
		c.Partitions = runtime.GOMAXPROCS(0)
	}
	if c.SerialMerge {
		c.Partitions = 1
		c.Reducers = 0
	}
	if c.Reducers < 0 {
		c.Reducers = 0
	}
	if c.Reducers > 0 {
		// The reduce partition space is the merge partition space.
		c.Partitions = c.Reducers
	}
	return c
}

// backoffDelay is the capped exponential backoff with deterministic
// jitter: base·2^(attempt-1) clamped to max, scaled by a factor drawn
// uniformly from [1-jitter, 1+jitter] out of the (seed, shard, attempt)
// stream, clamped to max again so the cap is absolute.
func backoffDelay(base, max time.Duration, jitter float64, seed int64, shard, attempt int) time.Duration {
	if base <= 0 || max <= 0 || attempt < 1 {
		return 0
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if jitter > 0 {
		rng := chaos.NewSplitMix64(chaos.Derive(uint64(seed), uint64(shard), uint64(attempt)))
		d = time.Duration(float64(d) * (1 + jitter*(2*rng.Float64()-1)))
	}
	if d > max {
		d = max
	}
	if d < 0 {
		d = 0
	}
	return d
}

// latencyQuantile returns the q-quantile (nearest-rank) of xs.
func latencyQuantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Round(q * float64(len(s)-1)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// WorkerStats is the per-worker slice of one Run: which worker did how
// much, and who caused the reassignments — so a reassignment storm is
// attributable to a machine instead of drowning in one aggregate count.
type WorkerStats struct {
	ID            string
	ShardsRun     int           // shards this worker completed
	Reassignments int           // shards re-queued because this worker failed
	Busy          time.Duration // cumulative dispatch round-trip time
}

// Stats reports the wall-clock phase decomposition of one Run — the real
// measurements behind the IPSO workload split: the scatter+map wave is
// the parallelizable portion, the master-side merge the internal portion
// — plus the resilience ledger: how often the run had to retry, clone,
// or discard work to finish.
//
// Since the merge overlaps the map phase, SplitWall + MergeWall double
// counts the overlapped fold time: TotalWall is measured end to end and
// satisfies TotalWall <= SplitWall + MergeWall, with the difference
// (MergeOverlapWall) being the merge work actually performed before the
// barrier — folder busy time, not the mostly-idle wall window since the
// first feed. The merge's critical-path contribution beyond the barrier
// is MergeWall - MergeOverlapWall.
type Stats struct {
	Workers          int           // workers used at job start
	Shards           int           // split-phase tasks
	Partitions       int           // merge partitions (folder goroutines)
	Completed        int           // shards that delivered a result
	Reassignments    int           // tasks requeued (with backoff) after a launch failure
	Speculations     int           // speculative clones launched for stragglers
	SpecWins         int           // tasks won by a speculative clone
	Duplicates       int           // late sibling results discarded after completion
	Cancellations    int           // in-flight launches abandoned at exit or cancellation
	SplitWall        time.Duration // scatter + parallel map (barrier to barrier)
	MergeWall        time.Duration // merge work wall: overlapped fold time + post-barrier tail
	MergeOverlapWall time.Duration // fold time spent before the barrier, hidden under the map wave
	TotalWall        time.Duration // end-to-end wall, measured (not derived)
	PerWorker        []WorkerStats // per-worker breakdown, sorted by ID

	// Distributed-reduce accounts, all zero when the run merged on the
	// master (Reducers unset, or SerialMerge).
	Reducers         int           // reduce tasks the run distributed (R)
	ReduceTasks      int           // reduce tasks that delivered a partition result
	MapOutputsStored int           // winning map outputs persisted worker-side for peer fetches
	ShuffleBytes     int64         // intermediate bytes reducers fetched over a socket (reads from a reducer's own store count nothing)
	ReduceWall       time.Duration // reduce phase wall (split barrier to last reduce result)

	// Out-of-core shuffle accounts: how much of the run's intermediate
	// state left memory (spill), how much wire volume compression saved,
	// and what intermediate losses cost. All zero on a run that fit in
	// memory on an all-healthy cluster.
	SpillRuns       int           // sorted spill runs workers flushed under memory pressure
	SpilledBytes    int64         // bytes of intermediate state written to spill files
	CompressedBytes int64         // shuffle wire bytes saved by frame compression
	ReplicaFetches  int           // fetch routings redirected to a replica after a holder died
	RecoveryWall    time.Duration // first detected intermediate loss to reduce completion

	// Pipelined-shuffle accounts, zero on barrier-mode runs.
	EarlyReduceTasks int // reduce tasks dispatched before the map barrier
	EarlyAborts      int // early launches aborted to free their worker for a map retry
	LocsStreamed     int // morelocs updates streamed to running early reducers
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
// own store. Empty when the mapper is the only live worker — the master
// then holds the fallback copy inline on the mapdone frame.
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

// NewMaster builds a master able to run jobs from the registry (the
// master needs each job's Reduce for the merge phase).
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
// helloack cannot be sent or the pool is full.
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
	ack := message{Type: "helloack", Partitions: m.cfg.Partitions, Reducers: m.cfg.Reducers, ShuffleMs: m.cfg.ShuffleTimeout.Milliseconds()}
	admitted := c.send(ack, 10*time.Second) == nil
	if admitted {
		select {
		case m.idle <- w:
		default:
			admitted = false // pool full
		}
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
		var batch []*workerHandle
	drain:
		for {
			select {
			case w := <-m.idle:
				batch = append(batch, w)
			default:
				break drain
			}
		}
		for _, w := range batch {
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

// shardTask is one launchable unit: a shard of records plus its lineage
// state (retry ordinal, speculative flag, backoff maturity).
type shardTask struct {
	id          int
	records     []string
	attempts    int
	speculative bool
	readyAt     time.Time // zero: dispatchable immediately
}

// flight tracks the live launches of one shard: how many are out, when
// the latest started (the straggler clock), and how many clones exist.
type flight struct {
	launches   int
	lastLaunch time.Time
	clones     int
}

// perWorkerLedger accumulates the Run's per-worker breakdown; dispatch
// goroutines report into it concurrently.
type perWorkerLedger struct {
	mu sync.Mutex
	by map[string]*WorkerStats
}

func newPerWorkerLedger() *perWorkerLedger {
	return &perWorkerLedger{by: map[string]*WorkerStats{}}
}

func (l *perWorkerLedger) get(id string) *WorkerStats {
	if ws, ok := l.by[id]; ok {
		return ws
	}
	ws := &WorkerStats{ID: id}
	l.by[id] = ws
	return ws
}

func (l *perWorkerLedger) shardDone(id string, busy time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ws := l.get(id)
	ws.ShardsRun++
	ws.Busy += busy
}

func (l *perWorkerLedger) shardFailed(id string, busy time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ws := l.get(id)
	ws.Reassignments++
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

// launchDone is a successful launch's report back to the Run loop: a map
// task's partitioned output (presult), or a persisted one (mapdone — the
// payload stayed on the worker, whose shuffle address rides along, parts
// then being the copy the master holds for a mapper that could not
// replicate). The reduce phase reuses the same struct for its partition
// results — sec, the folded partition as the section it arrived as — with
// bytes carrying the shuffle volume the reducer reported.
type launchDone struct {
	task      shardTask
	sec       section
	parts     []partitionPartial
	fetchAddr string
	repAddr   string // peer holding the replica of a stored output ("" = none)
	bytes     int64
	spills    int   // spill runs the launch flushed under memory pressure
	spilled   int64 // bytes those runs wrote
	compBytes int64 // shuffle wire bytes compression saved (reduce results)
	failovers int   // fetches the reducer rerouted to a replica locally
	elapsed   time.Duration
	launch    int // trace launch ordinal, -1 when the run is untraced
}

// errEarlyAborted marks an early reduce launch the master itself called
// back (its worker was needed for a map retry). The reduce phase requeues
// the partition through the barrier path without charging the attempt
// budget — an abort is the master's choice, not a failure.
var errEarlyAborted = errors.New("netmr: early reduce launch aborted")

// earlyLaunch is the Run loop's handle on one pipelined reduce dispatch:
// the partition it owns and the buffered channel the loop streams
// morelocs updates through. The channel is closed at the map barrier
// (stream complete) or right after an abort marker; its buffer is sized
// so the loop never blocks on a send.
type earlyLaunch struct {
	partition int
	updates   chan message
}

// launchFail is a failed launch's report, carrying the cause so budget
// exhaustion can surface the last real error.
type launchFail struct {
	task shardTask
	err  error
}

// Run scatters records into shards across the connected workers, merges
// their partitioned output (on the master, or with Reducers set by reduce
// tasks on the workers), and returns the reduced result with the phase
// timings. Reduce must be associative and
// commutative over its values (it is applied both as the workers'
// map-side combiner and as the master's merge).
//
// Failure handling: a launch that errors or times out is requeued with
// capped exponential backoff and deterministic jitter, up to MaxAttempts
// per lineage; the job degrades gracefully onto the surviving workers
// and fails only when a shard runs out of live launches and budget (the
// last launch error is wrapped in the returned error) or every worker is
// gone. With SpeculationInterval set, shards running far beyond the
// completion-latency quantile are cloned onto idle workers; the first
// result wins and late siblings are discarded exactly once (counted in
// Stats.Duplicates). Cancelling ctx aborts the job between events,
// abandoning in-flight launches (counted in Stats.Cancellations), and
// returns the context's error; the JobTimeout deadline applies on top.
// When ctx carries an obs recorder, the split and merge phases are
// recorded as spans ("map" and "merge" in the trace vocabulary).
func (m *Master) Run(ctx context.Context, jobName string, records []string, shards int) (map[string]float64, Stats, error) {
	res, stats, err := m.run(ctx, jobName, records, shards, true)
	if err != nil {
		return nil, stats, err
	}
	return res.Map(), stats, nil
}

// RunResult is Run for callers that do not need the output as one map:
// after a distributed reduce the Result holds the reducers' sections as
// they arrived, and the master's merge window shrinks to nothing.
func (m *Master) RunResult(ctx context.Context, jobName string, records []string, shards int) (*Result, Stats, error) {
	return m.run(ctx, jobName, records, shards, false)
}

// run is Run and RunResult. asMap builds the output map inside the merge
// window — span, trace phase, Stats.MergeWall — where Run has always
// accounted for it.
func (m *Master) run(ctx context.Context, jobName string, records []string, shards int, asMap bool) (result *Result, stats Stats, err error) {
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
	job, ok := m.registry.lookup(jobName)
	if !ok {
		return nil, Stats{}, fmt.Errorf("netmr: unknown job %q", jobName)
	}
	if shards < 1 {
		return nil, Stats{}, fmt.Errorf("netmr: shards %d must be >= 1", shards)
	}
	if m.ln == nil {
		return nil, Stats{}, errors.New("netmr: master is not listening")
	}
	stats = Stats{Workers: m.WorkerCount(), Shards: shards, Partitions: m.cfg.Partitions}
	if stats.Workers == 0 {
		return nil, Stats{}, errors.New("netmr: no workers connected")
	}
	ledger := newPerWorkerLedger()
	defer func() { stats.PerWorker = ledger.snapshot() }()

	useReduce := m.cfg.Reducers > 0
	runID := fmt.Sprintf("%s#%d", jobName, m.runSeq.Add(1))
	var mapLocs map[int]string // map task id → winning worker's shuffle address
	// Replica bookkeeping: where each stored map output's peer copy lives
	// (replicaLocs), and the master-held copies of outputs whose mapper
	// could not replicate — no eligible peer, or the push failed — which
	// rode inline on the mapdone frame (replicaParts). The reduce phase
	// consults both before resorting to map re-execution lineage.
	var replicaLocs map[int]string
	var replicaParts map[int][]partitionPartial
	if useReduce {
		stats.Reducers = m.cfg.Reducers
		mapLocs = make(map[int]string, shards)
		replicaLocs = make(map[int]string, shards)
		replicaParts = make(map[int][]partitionPartial)
	}

	// The job trace opens a launch span at every dispatch and is sealed
	// on every exit path, so no retry, speculation or cancellation
	// ordering can leave a span open in the dump.
	var trc *JobTrace
	if m.cfg.Trace {
		trc = newJobTrace(jobName, int(m.traceSeq.Add(1)))
		m.traceMu.Lock()
		m.last = trc
		m.traceMu.Unlock()
		defer trc.seal()
	}

	shardRecords := func(id int) []string {
		lo := len(records) * id / shards
		hi := len(records) * (id + 1) / shards
		return records[lo:hi]
	}

	// Split phase: scatter shards, collect partials at the barrier.
	queue := make([]shardTask, 0, shards)
	for i := 0; i < shards; i++ {
		queue = append(queue, shardTask{id: i, records: shardRecords(i)})
	}

	// Every launch reports exactly once; the buffers are sized for the
	// worst case (every lineage of every shard burning its full budget)
	// so dispatch goroutines can never block after Run returns.
	capacity := shards * m.cfg.MaxAttempts * (1 + m.cfg.SpeculationMaxClones)
	resultCh := make(chan launchDone, capacity)
	failCh := make(chan launchFail, capacity)

	// Reduce-phase launch reports funnel through channels created up
	// front, because with EarlyShuffle on reduce launches start under the
	// map tail — before runReducePhase exists to receive them. The
	// buffers cover every barrier-path lineage plus one early launch per
	// partition, so no reporter can ever block.
	var rResultCh chan launchDone
	var rFailCh chan launchFail
	if useReduce {
		rcap := m.cfg.Reducers * (1 + m.cfg.MaxAttempts*(1+m.cfg.SpeculationMaxClones))
		rResultCh = make(chan launchDone, rcap)
		rFailCh = make(chan launchFail, rcap)
	}

	// dispatch ships one or several shards to a worker: a single shard in
	// its own task frame, several in one taskbatch frame. The worker
	// answers one frame — a presult, or in reduce mode a mapdone — per
	// shard in order; each is reported individually, so a conn failure
	// mid-batch fails exactly the still-unacknowledged shards.
	dispatch := func(w *workerHandle, tasks []shardTask, launches []int) {
		launchOf := func(i int) int {
			if launches == nil {
				return -1
			}
			return launches[i]
		}
		// In reduce mode the Run stamp tells the worker to persist its
		// output, and Rep names it a replica peer — the next live shuffle
		// listener after its own — so its partitions survive the worker.
		// No eligible peer leaves Rep empty and the worker ships the copy
		// back inline instead.
		run, rep, want := "", "", "presult"
		if useReduce {
			run, rep, want = runID, m.pickReplicaAddr(w.fetch), "mapdone"
		}
		start := time.Now()
		var err error
		if len(tasks) == 1 {
			t := tasks[0]
			err = w.c.send(message{Type: "task", Job: jobName, TaskID: t.id, Attempt: t.attempts, Records: t.records, Run: run, Rep: rep, Trace: trc.frameID()}, m.cfg.TaskTimeout)
		} else {
			specs := make([]taskSpec, len(tasks))
			for i, t := range tasks {
				specs[i] = taskSpec{Job: jobName, TaskID: t.id, Attempt: t.attempts, Records: t.records}
			}
			err = w.c.send(message{Type: "taskbatch", Batch: specs, Run: run, Rep: rep, Trace: trc.frameID()}, m.cfg.TaskTimeout)
		}
		acked := 0
		prev := start
		for err == nil && acked < len(tasks) {
			t := tasks[acked]
			var reply message
			reply, err = w.c.recv(m.cfg.TaskTimeout)
			if err == nil && (reply.Type != want || reply.TaskID != t.id) {
				err = fmt.Errorf("netmr: worker %s answered shard %d with %q (task %d)", w.id, t.id, reply.Type, reply.TaskID)
			}
			if err == nil {
				// The merge engine and the reduce planner index part ids (a
				// mapdone carries the set when its mapper had no peer to
				// replicate to), so none reaches them unchecked.
				err = validateParts(reply.Parts, m.cfg.Partitions)
			}
			if err != nil {
				break
			}
			now := time.Now()
			elapsed := now.Sub(prev)
			prev = now
			m.metrics.rpcSeconds.With(w.id).Observe(elapsed.Seconds())
			ledger.shardDone(w.id, elapsed)
			if trc != nil {
				trc.closeLaunch(launchOf(acked), outcomeOK, reply.Spans)
			}
			resultCh <- launchDone{
				task: t, parts: reply.Parts,
				fetchAddr: w.fetch,
				repAddr:   reply.Rep, spills: reply.Spills, spilled: reply.Spilled,
				compBytes: reply.CompBytes,
				elapsed:   elapsed, launch: launchOf(acked),
			}
			acked++
		}
		if err != nil {
			// Lost or misbehaving worker: drop it, fail every shard it
			// still owed a result for.
			elapsed := time.Since(prev)
			for i, t := range tasks[acked:] {
				ledger.shardFailed(w.id, elapsed)
				m.metrics.reassignments.With(w.id).Inc()
				if trc != nil {
					trc.closeLaunch(launchOf(acked+i), outcomeFailed, nil)
				}
				failCh <- launchFail{task: t, err: err}
				elapsed = 0 // the round-trip is charged once
			}
			m.dropWorker(w)
			return
		}
		m.idle <- w // back to the pool
	}

	// ---- Early-shuffle engine ----------------------------------------
	// With EarlyShuffle on, idle workers left over once the map queue
	// drains go to work before the barrier: each gets
	// a reducetask naming the map outputs known so far plus the run's
	// total map count, and every later winning output streams to it as a
	// morelocs frame — the reducer fetches under the map tail and folds
	// the moment coverage completes. An abort (a map retry needs the
	// worker pool back) requeues the partition through the barrier path,
	// whose dispatches stay byte-identical to a non-early run.
	earlyActive := map[int]*earlyLaunch{}
	earlyLaunched := map[int]bool{}
	earlyDisabled := !useReduce || !m.cfg.EarlyShuffle
	earlyOK := func() bool {
		// Only the map tail qualifies: a non-empty queue means shards
		// still need workers, and launching with zero known outputs
		// would buy nothing over waiting for the next mapdone.
		return !earlyDisabled && len(earlyLaunched) < m.cfg.Reducers &&
			len(queue) == 0 && len(mapLocs) > 0
	}
	abortOneEarly := func() {
		if len(earlyActive) == 0 {
			return
		}
		// Deterministic pick: the highest partition launched last and has
		// overlapped the least fetching — the cheapest launch to lose.
		maxP := -1
		for p := range earlyActive {
			if p > maxP {
				maxP = p
			}
		}
		el := earlyActive[maxP]
		el.updates <- message{Type: "morelocs", Run: runID, TaskID: maxP, Message: "abort"}
		close(el.updates)
		delete(earlyActive, maxP)
		stats.EarlyAborts++
		m.metrics.earlyAborts.Inc()
	}
	closeEarly := func(abort bool) {
		ps := make([]int, 0, len(earlyActive))
		for p := range earlyActive {
			ps = append(ps, p)
		}
		sort.Ints(ps)
		for _, p := range ps {
			el := earlyActive[p]
			if abort {
				el.updates <- message{Type: "morelocs", Run: runID, TaskID: p, Message: "abort"}
				stats.EarlyAborts++
				m.metrics.earlyAborts.Inc()
			}
			close(el.updates)
			delete(earlyActive, p)
		}
	}
	// Error returns mid-map must not leave early reducers blocked in
	// their stream recv: abort every live launch on the way out. The
	// launch goroutines report into buffered channels nobody drains —
	// sized for that — and hand their workers back to the pool.
	defer closeEarly(true)

	// buildEarly snapshots partition p's gather plan at launch time:
	// locations for stored outputs (rerouted when a primary is already
	// gone), replica addresses for worker-local failover, and explicit
	// inline entries for master-held copies — empty sections included for
	// tasks that emitted nothing into p, so
	// the reducer's coverage count can reach Total. An output that would
	// need lineage re-execution returns !ok: pre-barrier recovery is not
	// worth the re-run, the barrier path handles it.
	buildEarly := func(p int) (locs []fetchLoc, parts []partitionPartial, reps []fetchLoc, ok bool) {
		stored := make([]int, 0, len(mapLocs))
		for t := range mapLocs {
			stored = append(stored, t)
		}
		sort.Ints(stored)
		byAddr := map[string][]int{}
		repBy := map[string][]int{}
		var addrs, repAddrs []string
		for _, task := range stored {
			addr := mapLocs[task]
			if m.addrAlive(addr) {
				if _, seen := byAddr[addr]; !seen {
					addrs = append(addrs, addr)
				}
				byAddr[addr] = append(byAddr[addr], task)
				if rep, okr := replicaLocs[task]; okr && m.addrAlive(rep) {
					if _, seen := repBy[rep]; !seen {
						repAddrs = append(repAddrs, rep)
					}
					repBy[rep] = append(repBy[rep], task)
				}
				continue
			}
			if rep, okr := replicaLocs[task]; okr && m.addrAlive(rep) {
				stats.ReplicaFetches++
				m.metrics.replicaFetches.Inc()
				if _, seen := byAddr[rep]; !seen {
					addrs = append(addrs, rep)
				}
				byAddr[rep] = append(byAddr[rep], task)
				continue
			}
			mp, okp := replicaParts[task]
			if !okp {
				return nil, nil, nil, false
			}
			parts = append(parts, partitionPartial{ID: task, Partial: partOf(mp, p)})
		}
		for _, addr := range addrs {
			locs = append(locs, fetchLoc{Addr: addr, Tasks: byAddr[addr]})
		}
		for _, addr := range repAddrs {
			reps = append(reps, fetchLoc{Addr: addr, Tasks: repBy[addr]})
		}
		return locs, parts, reps, true
	}

	// dispatchEarly runs one early launch end to end on its own
	// goroutine: send the snapshot reducetask, forward streamed morelocs
	// updates until the Run loop closes the stream (barrier or abort),
	// then collect the single reply the worker owes. Reports exactly
	// once into the reduce-phase channels — runReducePhase drains them
	// after the barrier.
	dispatchEarly := func(w *workerHandle, el *earlyLaunch, fr message, launch int) {
		t := shardTask{id: el.partition}
		start := time.Now()
		err := w.c.send(fr, m.cfg.TaskTimeout)
		aborted := false
		for err == nil {
			u, open := <-el.updates
			if !open {
				break
			}
			if u.Message == "abort" {
				aborted = true
			}
			err = w.c.send(u, m.cfg.TaskTimeout)
		}
		var reply message
		if err == nil {
			reply, err = w.c.recv(m.cfg.TaskTimeout)
		}
		elapsed := time.Since(start)
		if err == nil {
			switch {
			case reply.Type == "result" && reply.TaskID == t.id:
				m.metrics.rpcSeconds.With(w.id).Observe(elapsed.Seconds())
				ledger.shardDone(w.id, elapsed)
				if trc != nil {
					trc.closeLaunch(launch, outcomeOK, reply.Spans)
				}
				rResultCh <- launchDone{
					task: t, sec: reply.Folded, bytes: reply.Bytes,
					compBytes: reply.CompBytes, spills: reply.Spills, spilled: reply.Spilled,
					failovers: reply.Failovers, elapsed: elapsed, launch: launch,
				}
				m.idle <- w
				return
			case aborted && reply.Type == "error" && reply.TaskID == t.id && reply.Fetch == "":
				// The abort acknowledgement: not a failure, the partition
				// just goes back through the barrier path without charging
				// its attempt budget.
				if trc != nil {
					trc.closeLaunch(launch, outcomeCancelled, nil)
				}
				rFailCh <- launchFail{task: t, err: errEarlyAborted}
				m.idle <- w
				return
			case reply.Type == "error" && reply.TaskID == t.id && reply.Fetch != "":
				// A fetch failure names the dead holder: the reducer is
				// healthy, the holder is not. The barrier-path retry
				// re-plans around the loss.
				m.markAddrDead(reply.Fetch)
				if trc != nil {
					trc.closeLaunch(launch, outcomeFailed, nil)
				}
				rFailCh <- launchFail{task: t, err: fmt.Errorf("netmr: reduce partition %d: fetch from %s failed: %s", t.id, reply.Fetch, reply.Message)}
				m.idle <- w
				return
			default:
				detail := reply.Message
				if detail == "" {
					detail = fmt.Sprintf("frame %q (task %d)", reply.Type, reply.TaskID)
				}
				err = fmt.Errorf("netmr: worker %s failed early reduce partition %d: %s", w.id, t.id, detail)
			}
		}
		ledger.shardFailed(w.id, elapsed)
		m.metrics.reassignments.With(w.id).Inc()
		if trc != nil {
			trc.closeLaunch(launch, outcomeFailed, nil)
		}
		rFailCh <- launchFail{task: t, err: err}
		m.dropWorker(w)
	}

	inflight := make(map[int]*flight, shards)
	done := make(map[int]bool, shards)
	var completedLat []float64 // winning-launch latencies, speculation reference
	pending := shards

	// The merge runs as P partition folders fed while the map phase
	// drains; SerialMerge instead buffers partials for the legacy
	// barrier-then-merge pass; a distributed reduce replaces the engine
	// entirely (map outputs stay on the workers). The deferred shutdown covers every error return so an
	// abandoned job never leaks folder goroutines.
	var eng *mergeEngine
	var partials []map[string]float64
	switch {
	case useReduce:
		// No master-side fold: the reduce phase after the barrier does it.
	case m.cfg.SerialMerge:
		partials = make([]map[string]float64, 0, shards)
	default:
		eng = newMergeEngine(job, m.cfg.Partitions, shards)
		defer eng.shutdown()
	}

	liveLaunches := func() int {
		total := 0
		for _, f := range inflight {
			total += f.launches
		}
		return total
	}
	queuedShard := func(id int) bool {
		for _, t := range queue {
			if t.id == id {
				return true
			}
		}
		return false
	}
	abandon := func() {
		if n := liveLaunches(); n > 0 {
			stats.Cancellations += n
			m.metrics.cancellations.Add(float64(n))
		}
	}

	var specTick <-chan time.Time
	if m.cfg.SpeculationInterval > 0 {
		ticker := time.NewTicker(m.cfg.SpeculationInterval)
		defer ticker.Stop()
		specTick = ticker.C
	}
	wake := time.NewTimer(time.Hour)
	if !wake.Stop() {
		<-wake.C
	}
	defer wake.Stop()

	splitStart := time.Now()
	_, splitSpan := obs.StartSpan(ctx, "map")
	deadline := time.NewTimer(m.cfg.JobTimeout)
	defer deadline.Stop()
	for pending > 0 {
		// Compact finished shards out of the queue (their retries and
		// clones are moot), then find a dispatchable task and the next
		// backoff maturity.
		kept := queue[:0]
		for _, t := range queue {
			if !done[t.id] {
				kept = append(kept, t)
			}
		}
		queue = kept
		now := time.Now()
		readyIdx := -1
		var earliest time.Time
		for i, t := range queue {
			if !t.readyAt.After(now) {
				readyIdx = i
				break
			}
			if earliest.IsZero() || t.readyAt.Before(earliest) {
				earliest = t.readyAt
			}
		}
		var idleCh chan *workerHandle
		var wakeCh <-chan time.Time
		if readyIdx >= 0 || earlyOK() {
			idleCh = m.idle
		} else if !earliest.IsZero() {
			if !wake.Stop() {
				select {
				case <-wake.C:
				default:
				}
			}
			wake.Reset(earliest.Sub(now))
			wakeCh = wake.C
		}

		select {
		case w := <-idleCh:
			if readyIdx < 0 {
				// Early-shuffle window: the map queue is drained, every
				// remaining shard is in flight — this worker has nothing to
				// map, so it takes the lowest unlaunched partition (earlyOK
				// saw one).
				p := 0
				for earlyLaunched[p] {
					p++
				}
				locs, iparts, reps, ok := buildEarly(p)
				if !ok {
					// An intermediate would need lineage re-execution;
					// leave recovery to the barrier path and stop early
					// dispatching for this run (earlyOK now keeps the loop
					// from drawing the worker again).
					earlyDisabled = true
					m.idle <- w
					continue
				}
				el := &earlyLaunch{partition: p, updates: make(chan message, shards+2)}
				earlyLaunched[p] = true
				earlyActive[p] = el
				stats.EarlyReduceTasks++
				m.metrics.earlyLaunches.Inc()
				launch := -1
				if trc != nil {
					launch = trc.openLaunch("rtask", p, 0, w.id)
				}
				go dispatchEarly(w, el, message{
					Type: "reducetask", Job: jobName, TaskID: p, Run: runID,
					Locs: locs, Parts: iparts, Reps: reps, Total: shards, Trace: trc.frameID(),
				}, launch)
				continue
			}
			batch := append(make([]shardTask, 0, 1), queue[readyIdx])
			queue = append(queue[:readyIdx], queue[readyIdx+1:]...)
			if m.cfg.MaxTaskBatch > 1 {
				// Pack more ready shards into the same frame, preserving
				// queue order.
				now := time.Now()
				kept := queue[:0]
				for _, t := range queue {
					if len(batch) < m.cfg.MaxTaskBatch && !t.readyAt.After(now) {
						batch = append(batch, t)
					} else {
						kept = append(kept, t)
					}
				}
				queue = kept
			}
			for _, t := range batch {
				f := inflight[t.id]
				if f == nil {
					f = &flight{}
					inflight[t.id] = f
				}
				f.launches++
				f.lastLaunch = time.Now()
				m.metrics.shards.Inc()
			}
			var launches []int
			if trc != nil {
				// Every launch gets a unique ordinal — (shard, attempt)
				// collides when speculation clones a lineage.
				launches = make([]int, len(batch))
				for i, t := range batch {
					launches[i] = trc.openLaunch("task", t.id, t.attempts, w.id)
				}
			}
			go dispatch(w, batch, launches)

		case r := <-resultCh:
			if f := inflight[r.task.id]; f != nil {
				f.launches--
			}
			if done[r.task.id] {
				// A sibling already delivered this shard: first result
				// won, this one is discarded. The dispatch goroutine
				// closed the launch ok before it knew; relabel it.
				stats.Duplicates++
				m.metrics.duplicates.Inc()
				if trc != nil && r.launch >= 0 {
					trc.relabel(r.launch, outcomeDuplicate)
				}
				continue
			}
			done[r.task.id] = true
			if r.task.speculative {
				stats.SpecWins++
				m.metrics.specWins.Inc()
			}
			completedLat = append(completedLat, r.elapsed.Seconds())
			switch {
			case useReduce:
				// The winning output is persisted on the worker; remember
				// whose shuffle listener holds this map task's partitions,
				// and where the durable copy lives: a peer replica when the
				// push succeeded, the inline partition set on the master
				// otherwise.
				mapLocs[r.task.id] = r.fetchAddr
				if r.repAddr != "" {
					replicaLocs[r.task.id] = r.repAddr
				} else if r.parts != nil {
					replicaParts[r.task.id] = r.parts
				}
				// Stream the new location (and its replica, for worker-local
				// failover) to every running early reducer. Exactly-once per
				// task per launch: the snapshot covered tasks done before
				// the launch, this covers the ones after — both on this one
				// goroutine.
				for _, el := range earlyActive {
					u := message{Type: "morelocs", Run: runID, TaskID: el.partition,
						Locs: []fetchLoc{{Addr: r.fetchAddr, Tasks: []int{r.task.id}}}}
					if r.repAddr != "" {
						u.Reps = []fetchLoc{{Addr: r.repAddr, Tasks: []int{r.task.id}}}
					}
					el.updates <- u
					stats.LocsStreamed++
					m.metrics.locsStreamed.Inc()
				}
				if r.spills > 0 {
					stats.SpillRuns += r.spills
					stats.SpilledBytes += r.spilled
					m.metrics.spillRuns.Add(float64(r.spills))
					m.metrics.spilledBytes.Add(float64(r.spilled))
				}
				if r.compBytes > 0 {
					// Spill-section compression savings ride the mapdone.
					stats.CompressedBytes += r.compBytes
					m.metrics.compressedBytes.Add(float64(r.compBytes))
				}
				stats.MapOutputsStored++
				m.metrics.mapOutputs.With("stored").Inc()
			case eng != nil:
				eng.feed(r.parts)
			default:
				partials = append(partials, flatten(r.parts))
			}
			stats.Completed++
			pending--

		case fl := <-failCh:
			f := inflight[fl.task.id]
			if f != nil {
				f.launches--
			}
			if done[fl.task.id] {
				continue // sibling already delivered; failure is moot
			}
			t := fl.task
			t.attempts++
			if t.attempts >= m.cfg.MaxAttempts {
				// This lineage is out of budget. The shard survives only
				// if a sibling launch is live or queued.
				if (f != nil && f.launches > 0) || queuedShard(t.id) {
					continue
				}
				abandon()
				return nil, stats, fmt.Errorf("netmr: shard %d failed %d times, retry budget exhausted: %w", t.id, t.attempts, fl.err)
			}
			if m.WorkerCount() == 0 && (f == nil || f.launches == 0) {
				abandon()
				return nil, stats, fmt.Errorf("netmr: all workers lost with shard %d outstanding: %w", t.id, fl.err)
			}
			delay := backoffDelay(m.cfg.RetryBaseDelay, m.cfg.RetryMaxDelay, m.cfg.RetryJitter, m.cfg.RetrySeed, t.id, t.attempts)
			m.metrics.retries.Inc()
			m.metrics.backoffSeconds.Observe(delay.Seconds())
			stats.Reassignments++
			t.readyAt = time.Now().Add(delay)
			queue = append(queue, t)
			// The retry needs a worker: if early launches hold workers, call
			// one back — its partition reruns after the barrier.
			abortOneEarly()

		case <-specTick:
			if len(completedLat) < m.cfg.SpeculationMinObservations {
				continue
			}
			threshold := latencyQuantile(completedLat, m.cfg.SpeculationQuantile) * m.cfg.SpeculationMultiplier
			now := time.Now()
			ids := make([]int, 0, len(inflight))
			for id := range inflight {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			for _, id := range ids {
				f := inflight[id]
				if done[id] || f.launches == 0 || f.clones >= m.cfg.SpeculationMaxClones {
					continue
				}
				if now.Sub(f.lastLaunch).Seconds() < threshold {
					continue
				}
				f.clones++
				stats.Speculations++
				m.metrics.speculations.Inc()
				queue = append(queue, shardTask{id: id, records: shardRecords(id), speculative: true})
			}

		case <-wakeCh:
			// A backoff matured; rescan the queue.

		case <-ctx.Done():
			abandon()
			return nil, stats, ctx.Err()

		case <-deadline.C:
			abandon()
			return nil, stats, fmt.Errorf("netmr: job timed out after %v", m.cfg.JobTimeout)
		}
	}
	// Launches still out for shards that already completed (clone races
	// the job outlived) are abandoned; their workers rejoin the idle
	// pool when their RPC finishes.
	abandon()
	// Stream complete: every winning output has been streamed, so close
	// each early reducer's update channel — the reducer folds as soon as
	// its coverage reaches Total.
	closeEarly(false)
	splitSpan.End()
	barrier := time.Now()
	stats.SplitWall = barrier.Sub(splitStart)
	if trc != nil {
		trc.addPhase("split", splitStart, barrier)
	}
	m.metrics.splitSeconds.Observe(stats.SplitWall.Seconds())
	if eng != nil {
		// Sampled at the barrier: fold time the folders have already
		// spent ran under the map phase — the Ws the overlap hid. (The
		// wall window since the first feed would mostly be idle time
		// waiting for map results and overstate the win.)
		stats.MergeOverlapWall = eng.overlapped()
	}

	// Reduce phase: the R partitions go back out to the workers as tasks; the per-key fold happens there, not here, and the
	// R disjoint, key-sorted sections that come back are the result. What
	// is left for the master's "merge" window is the one map Run's callers
	// are owed — O(keys) inserts, no Reduce/Combine calls — and nothing at
	// all for RunResult's.
	if useReduce {
		_, reduceSpan := obs.StartSpan(ctx, "reduce")
		plan := &reducePlan{
			jobName: jobName, job: job, runID: runID,
			mapLocs: mapLocs, replicaLocs: replicaLocs, replicaParts: replicaParts,
			shards: shards, shardRecords: shardRecords,
		}
		finals, rerr := m.runReducePhase(ctx, plan, &stats, ledger, trc, deadline.C,
			rResultCh, rFailCh, earlyLaunched)
		reduceSpan.End()
		reduceEnd := time.Now()
		stats.ReduceWall = reduceEnd.Sub(barrier)
		m.metrics.reduceSeconds.Observe(stats.ReduceWall.Seconds())
		m.metrics.shuffleBytes.Add(float64(stats.ShuffleBytes))
		if trc != nil {
			trc.addPhase("reduce", barrier, reduceEnd)
		}
		if rerr != nil {
			return nil, stats, rerr
		}
		_, mergeSpan := obs.StartSpan(ctx, "merge")
		out := &Result{parts: finals}
		if asMap {
			out = &Result{flat: out.Map()}
		}
		mergeSpan.End()
		end := time.Now()
		if trc != nil {
			trc.addPhase("merge", reduceEnd, end)
		}
		stats.MergeWall = end.Sub(reduceEnd)
		stats.TotalWall = end.Sub(splitStart)
		m.metrics.mergeSeconds.Observe(stats.MergeWall.Seconds())
		m.metrics.mergeWidth.Set(float64(m.cfg.Reducers))
		return out, stats, nil
	}

	// Merge tail: the part of the merge left beyond the split barrier.
	// With the engine most folding already happened under the map phase
	// (MergeOverlapWall), so only the parallel finalize remains here. The
	// SerialMerge path does all its Ws(n) work in this window.
	_, mergeSpan := obs.StartSpan(ctx, "merge")
	var out map[string]float64
	if eng != nil {
		out, err = eng.finalize(ctx)
		if err != nil {
			mergeSpan.End()
			return nil, stats, err
		}
		for p := range eng.busy {
			m.metrics.mergePartition.With(strconv.Itoa(p)).Observe(time.Duration(eng.busy[p].Load()).Seconds())
		}
	} else {
		out = serialMerge(job, partials)
	}
	mergeSpan.End()
	end := time.Now()
	if trc != nil {
		trc.addPhase("merge", barrier, end)
	}
	stats.MergeWall = end.Sub(barrier) + stats.MergeOverlapWall
	stats.TotalWall = end.Sub(splitStart)
	m.metrics.mergeSeconds.Observe(stats.MergeWall.Seconds())
	m.metrics.mergeOverlap.Observe(stats.MergeOverlapWall.Seconds())
	m.metrics.mergeWidth.Set(float64(m.cfg.Partitions))
	return &Result{flat: out}, stats, nil
}

// flatten collapses one map task's partitioned output into the flat map
// serialMerge folds.
func flatten(parts []partitionPartial) map[string]float64 {
	n := 0
	for _, p := range parts {
		n += p.Partial.count()
	}
	out := make(map[string]float64, n)
	for _, p := range parts {
		p.Partial.addTo(out)
	}
	return out
}

// serialMerge is the legacy barrier-then-merge: every partial folded
// through one goroutine after the split completes. Jobs with a streaming
// Combine fold partials directly into the result; the rest group values
// per key (slices recycled through valuesPool) and Reduce once.
func serialMerge(job Job, partials []map[string]float64) map[string]float64 {
	// The largest partial is a lower bound on the distinct-key count:
	// pre-sizing on it avoids most rehash-and-copy growth.
	size := 0
	for _, p := range partials {
		if len(p) > size {
			size = len(p)
		}
	}
	if job.Combine != nil {
		out := make(map[string]float64, size)
		for _, p := range partials {
			for k, v := range p {
				if acc, ok := out[k]; ok {
					out[k] = job.Combine(acc, v)
				} else {
					out[k] = v
				}
			}
		}
		return out
	}
	merged := make(map[string]*[]float64, size)
	for _, p := range partials {
		for k, v := range p {
			vs, ok := merged[k]
			if !ok {
				vs = valuesPool.Get().(*[]float64)
				*vs = (*vs)[:0]
				merged[k] = vs
			}
			*vs = append(*vs, v)
		}
	}
	out := make(map[string]float64, len(merged))
	for k, vs := range merged {
		out[k] = job.Reduce(k, *vs)
		valuesPool.Put(vs)
	}
	return out
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
	for {
		select {
		case w := <-m.idle:
			_ = w.c.close()
			m.count.Add(-1)
			m.metrics.workers.Set(float64(m.count.Load()))
		default:
			return
		}
	}
}
