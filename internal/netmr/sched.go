package netmr

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"ipso/internal/chaos"
)

// The scheduling loop of a Run. Both phases — the map shards, then the
// reduce partitions — go through schedule, which owns
// every coordinating decision: the ready queue with backoff maturity, the
// live launches of each task, first-result-wins, the retry budget, the
// all-workers-lost exit, speculation, cancellation and the job deadline.
// A phase says only how to dispatch, what to do with a winning result,
// and the few hooks where the two phases differ.

// phase is what schedule needs to know about one phase's tasks, ids
// 0..tasks-1.
type phase struct {
	tasks    int
	kind     string // trace launch kind: "task" (map shard) or "rtask" (reduce partition)
	noun     string // what errors call a task: "shard" or "reduce partition"
	maxBatch int    // tasks one dispatch may carry
	results  <-chan launchDone
	fails    <-chan launchFail
	// seeded tasks were launched before the loop started (early reduce
	// launches): they start as live flights instead of queued tasks.
	seeded map[int]bool

	// launch hands batch to w; launches are its trace launch ordinals (nil
	// untraced). It runs on the loop's goroutine and starts the
	// round-trip on another, which reports every task of the batch
	// exactly once on results or fails.
	launch func(w *workerHandle, batch []shardTask, launches []int)
	// accept takes a task's winning result.
	accept func(r launchDone)
	// failed, when set, sees every failure report; true requeues the task
	// without charging its attempt budget.
	failed func(err error) bool
	// retried, when set, runs after a failed task is requeued.
	retried func()
	// spare, when set, asks for an idle worker while no task is ready
	// (queued counts the tasks still waiting out a backoff); such a worker
	// goes to useSpare.
	spare    func(queued int) bool
	useSpare func(w *workerHandle)
}

// shardTask is one launchable unit: a task id plus its lineage state
// (retry ordinal, speculative flag, backoff maturity).
type shardTask struct {
	id          int
	attempts    int
	speculative bool
	readyAt     time.Time // zero: dispatchable immediately
}

// flight tracks the live launches of one task: how many are out, when
// the latest started (the straggler clock), and how many clones exist.
type flight struct {
	launches   int
	lastLaunch time.Time
	clones     int
}

// launchFail is a failed launch's report, carrying the cause so budget
// exhaustion can surface the last real error.
type launchFail struct {
	task shardTask
	err  error
}

// launchOf is the trace launch ordinal of batch entry i, -1 untraced.
func launchOf(launches []int, i int) int {
	if launches == nil {
		return -1
	}
	return launches[i]
}

// scheduler is one schedule call's state.
type scheduler struct {
	m        *Master
	ph       *phase
	stats    *Stats
	trc      *JobTrace
	queue    []shardTask
	inflight map[int]*flight
	done     map[int]bool
	lat      []float64 // winning-launch latencies, the speculation reference
	pending  int
}

// schedule runs ph's tasks to completion on the master's idle workers.
// A launch that fails is requeued with capped exponential backoff, up to
// MaxAttempts per lineage; a task survives an exhausted lineage while a
// sibling launch is live or queued. Cancelling ctx, the deadline, budget
// exhaustion and the loss of every worker end the phase with an error;
// launches still in flight at any exit are abandoned and counted in
// Stats.Cancellations.
func (m *Master) schedule(ctx context.Context, ph *phase, stats *Stats, trc *JobTrace, deadline <-chan time.Time) error {
	s := &scheduler{
		m: m, ph: ph, stats: stats, trc: trc,
		queue:    make([]shardTask, 0, ph.tasks),
		inflight: make(map[int]*flight, ph.tasks),
		done:     make(map[int]bool, ph.tasks),
		pending:  ph.tasks,
	}
	for id := 0; id < ph.tasks; id++ {
		if !ph.seeded[id] {
			s.queue = append(s.queue, shardTask{id: id})
		}
	}
	// Seeded launches are live flights this loop inherits; their ages
	// start now so the speculation clock does not read the time before
	// this phase as straggling.
	for id := range ph.seeded {
		s.inflight[id] = &flight{launches: 1, lastLaunch: time.Now()}
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

	for s.pending > 0 {
		// Compact finished tasks out of the queue (their retries and
		// clones are moot), then find a dispatchable task and the next
		// backoff maturity.
		kept := s.queue[:0]
		for _, t := range s.queue {
			if !s.done[t.id] {
				kept = append(kept, t)
			}
		}
		s.queue = kept
		now := time.Now()
		readyIdx := -1
		var earliest time.Time
		for i, t := range s.queue {
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
		if readyIdx >= 0 || (ph.spare != nil && ph.spare(len(s.queue))) {
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
				ph.useSpare(w)
				continue
			}
			s.dispatch(w, readyIdx)

		case r := <-ph.results:
			s.result(r)

		case fl := <-ph.fails:
			if err := s.fail(fl); err != nil {
				s.abandon()
				return err
			}

		case <-specTick:
			s.speculate()

		case <-wakeCh:
			// A backoff matured; rescan the queue.

		case <-ctx.Done():
			s.abandon()
			return ctx.Err()

		case <-deadline:
			s.abandon()
			return fmt.Errorf("netmr: job timed out after %v", m.cfg.JobTimeout)
		}
	}
	// Launches still out for tasks that already completed (clone races
	// the phase outlived) are abandoned; their workers rejoin the idle
	// pool when their round-trip finishes.
	s.abandon()
	return nil
}

// dispatch takes the ready task at queue[readyIdx], packs up to maxBatch
// ready tasks in queue order, and launches them on w.
func (s *scheduler) dispatch(w *workerHandle, readyIdx int) {
	batch := append(make([]shardTask, 0, 1), s.queue[readyIdx])
	s.queue = append(s.queue[:readyIdx], s.queue[readyIdx+1:]...)
	if s.ph.maxBatch > 1 {
		now := time.Now()
		kept := s.queue[:0]
		for _, t := range s.queue {
			if len(batch) < s.ph.maxBatch && !t.readyAt.After(now) {
				batch = append(batch, t)
			} else {
				kept = append(kept, t)
			}
		}
		s.queue = kept
	}
	for _, t := range batch {
		f := s.inflight[t.id]
		if f == nil {
			f = &flight{}
			s.inflight[t.id] = f
		}
		f.launches++
		f.lastLaunch = time.Now()
	}
	var launches []int
	if s.trc != nil {
		// Every launch gets a unique ordinal — (task, attempt) collides
		// when speculation clones a lineage.
		launches = make([]int, len(batch))
		for i, t := range batch {
			launches[i] = s.trc.openLaunch(s.ph.kind, t.id, t.attempts, w.id)
		}
	}
	s.ph.launch(w, batch, launches)
}

// result applies first-result-wins: a task's first report is accepted, a
// late sibling's is discarded and counted once.
func (s *scheduler) result(r launchDone) {
	if f := s.inflight[r.task.id]; f != nil {
		f.launches--
	}
	if s.done[r.task.id] {
		// The dispatch goroutine closed the launch ok before it knew;
		// relabel it.
		s.stats.Duplicates++
		s.m.metrics.duplicates.Inc()
		if s.trc != nil && r.launch >= 0 {
			s.trc.relabel(r.launch, outcomeDuplicate)
		}
		return
	}
	s.done[r.task.id] = true
	if r.task.speculative {
		s.stats.SpecWins++
		s.m.metrics.specWins.Inc()
	}
	s.lat = append(s.lat, r.elapsed.Seconds())
	s.ph.accept(r)
	s.pending--
}

// fail requeues a failed launch's task with backoff, or returns the
// error that ends the phase.
func (s *scheduler) fail(fl launchFail) error {
	m := s.m
	f := s.inflight[fl.task.id]
	if f != nil {
		f.launches--
	}
	if s.ph.failed != nil && s.ph.failed(fl.err) {
		if !s.done[fl.task.id] && !s.queued(fl.task.id) {
			s.queue = append(s.queue, fl.task)
		}
		return nil
	}
	if s.done[fl.task.id] {
		return nil // sibling already delivered; failure is moot
	}
	t := fl.task
	t.attempts++
	if t.attempts >= m.cfg.MaxAttempts {
		// This lineage is out of budget. The task survives only if a
		// sibling launch is live or queued.
		if (f != nil && f.launches > 0) || s.queued(t.id) {
			return nil
		}
		return fmt.Errorf("netmr: %s %d failed %d times, retry budget exhausted: %w", s.ph.noun, t.id, t.attempts, fl.err)
	}
	if m.WorkerCount() == 0 && (f == nil || f.launches == 0) {
		// Here a reduce task is just a "partition".
		return fmt.Errorf("netmr: all workers lost with %s %d outstanding: %w", strings.TrimPrefix(s.ph.noun, "reduce "), t.id, fl.err)
	}
	delay := backoffDelay(m.cfg.RetryBaseDelay, m.cfg.RetryMaxDelay, m.cfg.RetryJitter, m.cfg.RetrySeed, t.id, t.attempts)
	m.metrics.retries.Inc()
	m.metrics.backoffSeconds.Observe(delay.Seconds())
	s.stats.Reassignments++
	t.readyAt = time.Now().Add(delay)
	s.queue = append(s.queue, t)
	if s.ph.retried != nil {
		s.ph.retried()
	}
	return nil
}

// speculate queues a clone of every task whose latest launch has run
// longer than the completion-latency quantile times the multiplier.
func (s *scheduler) speculate() {
	cfg := s.m.cfg
	if len(s.lat) < cfg.SpeculationMinObservations {
		return
	}
	threshold := latencyQuantile(s.lat, cfg.SpeculationQuantile) * cfg.SpeculationMultiplier
	now := time.Now()
	ids := make([]int, 0, len(s.inflight))
	for id := range s.inflight {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		f := s.inflight[id]
		if s.done[id] || f.launches == 0 || f.clones >= cfg.SpeculationMaxClones {
			continue
		}
		if now.Sub(f.lastLaunch).Seconds() < threshold {
			continue
		}
		f.clones++
		s.stats.Speculations++
		s.m.metrics.speculations.Inc()
		s.queue = append(s.queue, shardTask{id: id, speculative: true})
	}
}

func (s *scheduler) queued(id int) bool {
	for _, t := range s.queue {
		if t.id == id {
			return true
		}
	}
	return false
}

// abandon counts the launches still in flight as cancelled.
func (s *scheduler) abandon() {
	n := 0
	for _, f := range s.inflight {
		n += f.launches
	}
	if n > 0 {
		s.stats.Cancellations += n
		s.m.metrics.cancellations.Add(float64(n))
	}
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
