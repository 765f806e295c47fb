package netmr

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"ipso/internal/chaos"
)

// The scheduling loop of a Run. A job is one task graph, its map shards
// and the R reduce tasks that depend on them, and schedule runs all of it:
// the ready queues with backoff maturity, the live launches of each task,
// first-result-wins, the retry budget, the all-workers-lost exit,
// speculation and cancellation (the job's bound is ctx's deadline). The
// dependency edge is three rules of the loop: map tasks dispatch first
// (next); a ready map task — a retry, a speculative clone or a task
// re-opened for a lost output — with no idle worker calls a reduce launch
// back (schedule); and a reduce launch awaits the map outputs its plan
// could not locate on a stream of their locations (gatherPlan, accept).

// phase is one kind of task in the graph, ids 0..tasks-1: how to launch
// and accept them, and the loop's state of them.
type phase struct {
	tasks int
	kind  string // trace launch kind: "task" (map shard) or "rtask" (reduce partition)
	noun  string // what errors call a task: "shard" or "reduce partition"
	// weigh, when set, lets a dispatch carry several tasks (see
	// batchBytes): it returns task id's input bytes, or any count past
	// room once they exceed it. Unset, every dispatch carries one task.
	weigh func(id, room int) int
	// launch hands batch to w; launches are its trace launch ordinals (nil
	// untraced). It runs on the loop's goroutine and starts the
	// round-trip on another, which reports every task of the batch
	// exactly once on the run's results or fails.
	launch func(w *workerHandle, batch []shardTask, launches []int)
	// accept takes a task's winning result.
	accept func(r launchDone)

	queue    []shardTask
	inflight map[int]*flight
	done     []bool
	lat      []float64 // winning-launch latencies, the speculation reference
	pending  int
}

// newPhase readies a phase for the loop: every task queued, none done.
func newPhase(tasks int, kind, noun string) *phase {
	ph := &phase{tasks: tasks, kind: kind, noun: noun, queue: make([]shardTask, tasks),
		inflight: make(map[int]*flight, tasks), done: make([]bool, tasks), pending: tasks}
	for id := range ph.queue {
		ph.queue[id] = shardTask{id: id, ph: ph}
	}
	return ph
}

// shardTask is one launchable unit: a task id plus its lineage state
// (retry ordinal, speculative flag, backoff maturity) and, once
// dispatched, the flight its launch joined.
type shardTask struct {
	id          int
	ph          *phase // the task's kind: a run's maps or reduces
	attempts    int
	speculative bool
	readyAt     time.Time // zero: dispatchable immediately
	flight      *flight
}

// first reports whether t is a task's first launch: neither a retry nor
// a speculative clone.
func (t shardTask) first() bool { return t.attempts == 0 && !t.speculative }

// flight tracks the live launches of one task: how many are out, when
// the latest started (the straggler clock), how many clones exist, and
// the trace launch ordinals of those the loop dispatched (traced runs).
type flight struct {
	launches   int
	lastLaunch time.Time
	clones     int
	traced     []int
}

// reported drops a launch that reported from the flight's traced ones.
func (f *flight) reported(launch int) {
	f.launches--
	f.traced = slices.DeleteFunc(f.traced, func(l int) bool { return l == launch })
}

// launchFail is a failed launch's report, carrying the cause so budget
// exhaustion can surface the last real error.
type launchFail struct {
	task   shardTask
	err    error
	launch int        // trace launch ordinal, -1 when the run is untraced
	stream *locStream // a reduce launch's location stream, nil when it had none
}

// launchOf is the trace launch ordinal of batch entry i, -1 untraced.
func launchOf(launches []int, i int) int {
	if launches == nil {
		return -1
	}
	return launches[i]
}

// schedule runs r's task graph to completion on the master's idle
// workers. A launch that fails is requeued with capped exponential
// backoff, up to MaxAttempts per lineage; a task survives an exhausted
// lineage while a sibling launch is live or queued. Cancelling ctx (or
// its deadline), budget exhaustion and the loss of every worker end the run
// with an error. Launches still in flight at any exit are abandoned and
// counted in Stats.Cancellations, and so are the map launches still out
// at the barrier. Every dispatch follows the reports already queued.
func (m *Master) schedule(ctx context.Context, r *jobRun) error {
	var specTick <-chan time.Time
	if m.cfg.SpeculationInterval > 0 {
		ticker := time.NewTicker(m.cfg.SpeculationInterval)
		defer ticker.Stop()
		specTick = ticker.C
	}
	// Every exit abandons what is still out — a clone race the run
	// outlived, on success; the workers rejoin the pool when their
	// round-trip ends — and calls back the reduce launches still awaiting
	// map outputs, so none stays blocked.
	defer func() {
		r.abandon(r.maps)
		r.abandon(r.reduces)
		for s := range r.streams {
			r.endStream(s, true)
		}
	}()

	for {
		// A reducer may answer from its own store before the loop has taken
		// every map output: the run ends at the barrier at the earliest.
		if err := r.drain(); err != nil || r.reduces.pending == 0 && !r.barrier.IsZero() {
			return err
		}
		now := time.Now()
		ph, readyIdx, earliest := r.next(now)
		if ph == r.maps && readyIdx >= 0 && len(m.idle) == 0 && len(r.calledBack) == 0 {
			// Reduce launches may hold every worker, waiting on this map
			// task; one at a time, the next once the last has reported.
			r.callBack()
		}
		var idleCh chan *workerHandle
		var wakeCh <-chan time.Time
		if readyIdx >= 0 {
			idleCh = m.idle
		} else if !earliest.IsZero() {
			wakeCh = time.After(earliest.Sub(now))
		}

		select {
		case w := <-idleCh:
			if len(r.results)+len(r.fails) > 0 {
				// Reports came in while the select waited: w goes back
				// and takes its task once the loop has applied them.
				m.idle <- w
				continue
			}
			r.dispatch(ph, w, readyIdx)

		case d := <-r.results:
			r.result(d)

		case fl := <-r.fails:
			if err := r.fail(fl); err != nil {
				return err
			}

		case <-specTick:
			r.speculate(r.maps)
			r.speculate(r.reduces)

		case <-wakeCh:
			// A backoff matured; rescan the queue.

		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// drain applies every report already queued, so that no dispatch is
// decided on a view older than the master's inbox: a reduce task whose
// map outputs have all reported launches with its whole plan, not under
// a stream of morelocs frames. It returns the error that ends the run.
func (r *jobRun) drain() error {
	for {
		select {
		case d := <-r.results:
			r.result(d)
		case fl := <-r.fails:
			if err := r.fail(fl); err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

// next finds the task an idle worker would take now: the first ready map
// task in queue order, or, while no map task is queued, the first ready
// reduce task once a map output is stored. Finished tasks leave the
// queues first (their retries and clones are moot). With none ready,
// earliest is the next backoff maturity of the queue that goes next.
func (r *jobRun) next(now time.Time) (ph *phase, readyIdx int, earliest time.Time) {
	for _, q := range []*phase{r.maps, r.reduces} {
		q.queue = slices.DeleteFunc(q.queue, func(t shardTask) bool { return q.done[t.id] })
	}
	ph = r.maps
	if len(ph.queue) == 0 {
		ph = r.reduces
		if len(r.mapLocs) == 0 {
			return ph, -1, time.Time{}
		}
	}
	for i, t := range ph.queue {
		if !t.readyAt.After(now) {
			return ph, i, time.Time{}
		}
		if earliest.IsZero() || t.readyAt.Before(earliest) {
			earliest = t.readyAt
		}
	}
	return ph, -1, earliest
}

// batchBytes bounds the input bytes of one dispatch's tasks. Sending a
// frame costs about 50 µs on the ledger's 2-vCPU host whatever it
// carries: some 25 µs to deliver the task frame and 25 µs for the
// replica peer's ack, against about 45 µs of map work for one of
// smalljobs' 3.5 KB shards. The map kernels run at 100–320 MB/s there
// (BenchmarkMapKernel), so 256 KiB is 0.8–2.6 ms of map work, on which
// the frame's cost is 2–6 %: past that a bigger batch saves little and
// only holds more shards on one worker. Larger shards (tera-mem's
// 1.5 MB, wc-lowcard's 6.5 MB) travel one per frame.
const batchBytes = 256 << 10

// dispatch takes the ready task at ph.queue[readyIdx] and launches it on
// w with, when the phase weighs its tasks, the ready tasks that follow it
// in queue order while their input bytes stay within batchBytes and the
// batch within the worker's fair share, ⌈tasks / live workers⌉.
// Speculative clones and retries travel alone: a clone that shared a
// frame would wait on its mates, which is what it was launched to avoid.
func (r *jobRun) dispatch(ph *phase, w *workerHandle, readyIdx int) {
	batch := append(make([]shardTask, 0, 1), ph.queue[readyIdx])
	ph.queue = append(ph.queue[:readyIdx], ph.queue[readyIdx+1:]...)
	live := max(r.m.WorkerCount(), 1)
	share := (ph.tasks + live - 1) / live
	now := time.Now()
	if ph.weigh != nil && share > 1 && len(ph.queue) > 0 && batch[0].first() {
		room := batchBytes - ph.weigh(batch[0].id, batchBytes)
		kept := ph.queue[:0]
		for _, t := range ph.queue {
			if room >= 0 && len(batch) < share && t.first() && !t.readyAt.After(now) {
				if room -= ph.weigh(t.id, room); room >= 0 {
					batch = append(batch, t)
					continue
				}
			}
			kept = append(kept, t)
		}
		ph.queue = kept
	}
	var launches []int
	if r.trc != nil {
		launches = make([]int, len(batch))
	}
	for i := range batch {
		var launch int
		batch[i], launch = r.fly(ph, batch[i], w, now)
		if launches != nil {
			launches[i] = launch
		}
	}
	ph.launch(w, batch, launches)
}

// fly joins t, a task of ph, to its task's flight, and on a traced run
// opens its launch span on w: every launch's bookkeeping at dispatch. It
// returns t in its flight and the launch ordinal, -1 untraced; every
// launch gets its own, as (task, attempt) collides when speculation
// clones a lineage.
func (r *jobRun) fly(ph *phase, t shardTask, w *workerHandle, now time.Time) (shardTask, int) {
	f := ph.inflight[t.id]
	if f == nil {
		f = &flight{}
		ph.inflight[t.id] = f
	}
	f.launches++
	f.lastLaunch = now
	t.flight = f
	launch := -1
	if r.trc != nil {
		launch = r.trc.openLaunch(ph.kind, t.id, t.attempts, w.id)
		f.traced = append(f.traced, launch)
	}
	return t, launch
}

// carry takes the reduce launch that the map batch just dispatched to w
// carries, or returns nil. A batch carries one when it takes the last map
// work w will get — it leaves the map queue empty, or fills w's fair
// share of it, ⌈tasks / workers that may draw it⌉, those being the idle
// ones and w — and a reduce task is ready: the first in queue order rides
// in the batch's write, and w runs it as soon as it has mapped the batch
// (dispatchMap), with no launch round trip through the master in between.
// The launch awaits no output of its own batch: those are in w's store by
// then. A speculative clone or a retry, which travels alone, carries none:
// the launch would wait on a task already slow or failed once.
func (r *jobRun) carry(w *workerHandle, batch []shardTask) *reduceLaunch {
	drawers := len(r.m.idle) + 1
	if !batch[0].first() || len(r.maps.queue) > 0 && len(batch) < (r.maps.tasks+drawers-1)/drawers {
		return nil
	}
	now := time.Now()
	q := r.reduces.queue
	i := slices.IndexFunc(q, func(t shardTask) bool { return !t.readyAt.After(now) })
	if i < 0 {
		return nil
	}
	t, launch := r.fly(r.reduces, q[i], w, now)
	r.reduces.queue = append(q[:i], q[i+1:]...)
	rl := r.planReduce(w, t, launch, batch)
	rl.mapping.Store(true)
	r.carried = append(r.carried, rl)
	return rl
}

// result applies first-result-wins: a task's first report is accepted, a
// late sibling's is discarded and counted once. The map output accepted
// when no other map task is pending is the barrier; a map launch still
// out then was abandoned there, and its report is not counted. A task
// re-opened after the barrier is pending again, and the launches of its
// new flight report as before it.
func (r *jobRun) result(d launchDone) {
	ph := d.task.ph
	if ph == r.reduces {
		// The launch may have answered before its stream ended.
		r.endStream(d.stream, false)
		delete(r.calledBack, d.stream)
	}
	f := ph.inflight[d.task.id]
	if f != d.task.flight {
		return // abandoned at the barrier, which forgets every map flight
	}
	f.reported(d.launch)
	if ph.done[d.task.id] {
		// The dispatch goroutine closed the launch ok before it knew;
		// relabel it.
		r.stats.Duplicates++
		r.m.metrics.duplicates.Inc()
		if r.trc != nil && d.launch >= 0 {
			r.trc.relabel(d.launch, outcomeDuplicate)
		}
		return
	}
	ph.done[d.task.id] = true
	if d.task.speculative {
		r.stats.SpecWins++
		r.m.metrics.specWins.Inc()
	}
	lat := d.elapsed
	if ph == r.reduces {
		lat = min(lat, time.Since(r.barrier)) // a reduce task's clock starts at the barrier
	}
	ph.lat = append(ph.lat, lat.Seconds())
	ph.accept(d)
	if ph.pending--; ph == r.maps && ph.pending == 0 && r.barrier.IsZero() {
		r.abandon(r.maps)
		r.passBarrier()
		for _, f := range r.reduces.inflight {
			f.lastLaunch = r.barrier
		}
	}
}

// fail requeues a failed launch's task with backoff, or returns the
// error that ends the run. A launch the master called back is requeued
// as it was, charging nothing.
func (r *jobRun) fail(fl launchFail) error {
	m, ph, t := r.m, fl.task.ph, fl.task
	f := ph.inflight[t.id]
	if f != t.flight {
		return nil // abandoned at the barrier
	}
	f.reported(fl.launch)
	if ph == r.reduces {
		r.endStream(fl.stream, false)
		delete(r.calledBack, fl.stream)
	}
	if errors.Is(fl.err, errCalledBack) {
		if !ph.done[t.id] && !ph.queued(t.id) {
			ph.queue = append(ph.queue, t)
		}
		return nil
	}
	if ph.done[t.id] {
		return nil // sibling already delivered; failure is moot
	}
	t.attempts++
	live := f.launches > 0
	if t.attempts >= m.cfg.MaxAttempts {
		// This lineage is out of budget. The task survives only if a
		// sibling launch is live or queued.
		if !live && !ph.queued(t.id) {
			return fmt.Errorf("netmr: %s %d failed %d times, retry budget exhausted: %w", ph.noun, t.id, t.attempts, fl.err)
		}
	} else if m.WorkerCount() == 0 && !live {
		// Here a reduce task is just a "partition".
		return fmt.Errorf("netmr: all workers lost with %s %d outstanding: %w", strings.TrimPrefix(ph.noun, "reduce "), t.id, fl.err)
	} else {
		delay := backoffDelay(m.cfg.RetryBaseDelay, retryMaxDelay, retryJitter, retrySeed, t.id, t.attempts)
		m.metrics.retries.Inc()
		m.metrics.backoffSeconds.Observe(delay.Seconds())
		r.stats.Reassignments++
		t.readyAt = time.Now().Add(delay)
		ph.queue = append(ph.queue, t)
	}
	return nil
}

// maxClones bounds the speculative clones of one task.
const maxClones = 1

// stragglerRule is when speculation clones a launch: once it has run
// mult times the q-quantile of its phase's completion latencies, trusted
// after minObs completions. Every master runs defaultStraggler.
type stragglerRule struct {
	q, mult float64
	minObs  int
}

var defaultStraggler = stragglerRule{q: 0.75, mult: 2, minObs: 3}

// speculate queues a clone of every task of ph whose latest launch is a
// straggler by the master's rule. A reduce launch that awaits a map
// output is no straggler: a clone would await the same re-run.
func (r *jobRun) speculate(ph *phase) {
	rule := r.m.straggler
	if len(ph.lat) < rule.minObs {
		return
	}
	threshold := latencyQuantile(ph.lat, rule.q) * rule.mult
	now := time.Now()
	ids := make([]int, 0, len(ph.inflight))
	for id := range ph.inflight {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	awaiting := map[int]bool{} // reduce partitions with a launch on a location stream
	for s := range r.streams {
		awaiting[s.p] = true
	}
	for _, id := range ids {
		f := ph.inflight[id]
		if ph.done[id] || f.launches == 0 || f.clones >= maxClones || ph == r.reduces && awaiting[id] {
			continue
		}
		if now.Sub(f.lastLaunch).Seconds() < threshold {
			continue
		}
		f.clones++
		r.stats.Speculations++
		r.m.metrics.speculations.Inc()
		ph.queue = append(ph.queue, shardTask{id: id, ph: ph, speculative: true})
	}
}

func (ph *phase) queued(id int) bool {
	return slices.ContainsFunc(ph.queue, func(t shardTask) bool { return t.id == id })
}

// abandon counts ph's launches still in flight as cancelled, and the
// trace shows them so, whether or not their report is already on its
// way. The phase forgets them: a second abandon counts nothing.
func (r *jobRun) abandon(ph *phase) {
	n := 0
	for _, f := range ph.inflight {
		n += f.launches
		r.trc.cancel(f.traced)
	}
	clear(ph.inflight)
	r.stats.Cancellations += n
	r.m.metrics.cancellations.Add(float64(n))
}

// A failed launch's retry waits RetryBaseDelay doubled per attempt up to
// retryMaxDelay, scaled by ±retryJitter drawn from the seed, the task and
// the attempt: churned clusters do not retry in lockstep, yet every run
// has the same delay schedule.
const (
	retryMaxDelay = 2 * time.Second
	retryJitter   = 0.2
	retrySeed     = 0
)

// backoffDelay is the capped exponential backoff with deterministic
// jitter: base·2^(attempt-1) clamped to ceiling, scaled by a factor
// drawn uniformly from [1-jitter, 1+jitter] out of the (seed, shard,
// attempt) stream, clamped to ceiling again so the cap is absolute.
func backoffDelay(base, ceiling time.Duration, jitter float64, seed int64, shard, attempt int) time.Duration {
	if base <= 0 || ceiling <= 0 || attempt < 1 {
		return 0
	}
	d := base
	for i := 1; i < attempt && d < ceiling; i++ {
		d *= 2
	}
	if jitter > 0 {
		rng := chaos.NewSplitMix64(chaos.Derive(uint64(seed), uint64(shard), uint64(attempt)))
		d = time.Duration(float64(min(d, ceiling)) * (1 + jitter*(2*rng.Float64()-1)))
	}
	return max(min(d, ceiling), 0)
}

// latencyQuantile returns the q-quantile (nearest-rank) of xs.
func latencyQuantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[min(max(int(math.Round(q*float64(len(s)-1))), 0), len(s)-1)]
}
