package netmr

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Distributed job tracing: the master-side assembler that reconstructs a
// per-job timeline from its own dispatch events and the span summaries
// traced workers piggyback on result frames, then attributes the job's
// wall clock into the IPSO workload phases (Eq. 14-17): Wp — the
// parallelizable map compute, Ws — the master's merge window on the
// critical path, and Wo — everything scale-out itself induced
// (queue wait, RPC and serialization, retry/speculation waste). The
// breakdown is the measured ε(n)/q(n) input the live model fit consumes.

// Span outcomes recorded on launch-level spans.
const (
	outcomeOK        = "ok"        // the launch delivered the shard's winning result
	outcomeFailed    = "failed"    // the launch errored or timed out (requeued)
	outcomeDuplicate = "duplicate" // a sibling won the shard first; result discarded
	outcomeCancelled = "cancelled" // abandoned in flight at job exit or cancellation
)

// TraceSpan is one interval of the assembled job timeline, on the
// master's clock (seconds since the job trace epoch). Launch-level spans
// have Phase "task" (a map shard) or "rtask" (a reduce partition) and a
// unique Launch ordinal — (shard, attempt) alone collides when a
// speculative clone restarts a lineage — with the worker-reported
// sub-phases sharing that ordinal. Master-level phase spans ("split",
// "reduce", "merge") have Launch and Shard of -1.
type TraceSpan struct {
	Launch  int     `json:"launch"`
	Shard   int     `json:"task"`
	Attempt int     `json:"stage"`
	Worker  string  `json:"worker,omitempty"`
	Phase   string  `json:"phase"`
	Outcome string  `json:"outcome,omitempty"`
	Start   float64 `json:"start"`
	End     float64 `json:"end"`
}

// Duration returns End − Start.
func (s TraceSpan) Duration() float64 { return s.End - s.Start }

// JobTrace is the assembled trace of one Run. The master opens a
// launch-level span at every dispatch and closes it when the launch
// reports (or abandons it at exit), so a sealed trace never holds an
// open span whatever retry, speculation or cancellation path the run
// took — the invariant the chaos regression pins.
type JobTrace struct {
	Job string
	ID  string

	mu     sync.Mutex
	epoch  time.Time
	sealed bool
	next   int
	open   map[int]*TraceSpan // launch ordinal → in-flight launch span
	byID   map[int]int        // launch ordinal → index in spans (closed)
	spans  []TraceSpan
}

// newJobTrace starts an empty trace; seq distinguishes this run's trace
// ID from other runs of the same master.
func newJobTrace(job string, seq int) *JobTrace {
	return &JobTrace{
		Job:   job,
		ID:    fmt.Sprintf("%s-%d", job, seq),
		epoch: time.Now(),
		open:  map[int]*TraceSpan{},
		byID:  map[int]int{},
	}
}

func (t *JobTrace) since(at time.Time) float64 { return at.Sub(t.epoch).Seconds() }

// frameID is what a task frame's Trace field carries: the trace's ID,
// which asks the worker for span summaries, or nothing on an untraced run
// (a nil trace).
func (t *JobTrace) frameID() string {
	if t == nil {
		return ""
	}
	return t.ID
}

// openLaunch records a dispatch and returns the launch ordinal the
// dispatch goroutine closes it with. phase is the launch kind — "task"
// for a map shard, "rtask" for a reduce partition. Sealed traces refuse
// new launches (a dispatch racing Run's return cannot resurrect the
// trace).
func (t *JobTrace) openLaunch(phase string, shard, attempt int, worker string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sealed {
		return -1
	}
	id := t.next
	t.next++
	t.open[id] = &TraceSpan{
		Launch: id, Shard: shard, Attempt: attempt, Worker: worker,
		Phase: phase, Start: t.since(time.Now()),
	}
	return id
}

// closeLaunch seals one launch span with its outcome and grafts the
// worker's reported sub-phase spans into the timeline, re-based onto the
// master clock so the worker needs no synchronized clock: the worker's
// window is aligned to end at this close (its last phase ended just
// before the result frame was sent), which charges the request leg of
// the RPC to the visible gap after the launch start. Closing an unknown
// or already-closed launch is a no-op — late duplicate reports after
// the trace sealed must not corrupt it — and so is any close on the nil
// trace of an untraced run.
func (t *JobTrace) closeLaunch(id int, outcome string, worker []spanSummary) {
	t.closeBatch([]int{id}, outcome, [][]spanSummary{worker}, 0)
}

// closeBatch closes launches whose answers left the worker in one write:
// shards of one task frame it ran back to back, each with its reported
// spans. Their windows tile the round trip: the last shard's worker
// window ends at this close, each earlier one ends where the next begins,
// and only the first launch keeps its start, moved up to after (the
// close of the frame's previous write, 0 for its first) — so the frame's
// legs and whatever the worker did not report are charged once, not once
// per shard. One launch closes as closeLaunch says. It returns the close
// time, the next write's after.
func (t *JobTrace) closeBatch(ids []int, outcome string, worker [][]spanSummary, after float64) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ends := make([]float64, len(ids))
	closed := t.since(time.Now())
	end := closed
	for i := len(ids) - 1; i >= 0; i-- {
		ends[i] = end
		end -= spanWindow(worker[i])
	}
	for i, id := range ids {
		from := after
		if i > 0 {
			from = ends[i] // so it starts where its spans begin
		}
		t.closeLocked(id, outcome, ends[i], from, worker[i])
	}
	return closed
}

// spanWindow is the length of a worker's reported window: where its last
// span ends.
func spanWindow(worker []spanSummary) float64 {
	w := 0.0
	for _, ws := range worker {
		w = max(w, ws.End)
	}
	return w
}

// closeLocked seals launch id at end with the worker's spans aligned to
// end there too; its start moves up to from when that is later, but not
// past where the spans begin: a write the master read late leaves the
// next one less time than its shards took.
func (t *JobTrace) closeLocked(id int, outcome string, end, from float64, worker []spanSummary) {
	sp, ok := t.open[id]
	if !ok {
		return
	}
	delete(t.open, id)
	window := spanWindow(worker)
	sp.Start = max(sp.Start, min(from, end-window))
	// Clock skew guard: never place worker time before dispatch.
	base := max(end-window, sp.Start)
	sp.End, sp.Outcome = end, outcome
	t.byID[id] = len(t.spans)
	t.spans = append(t.spans, *sp)
	for _, ws := range worker {
		t.spans = append(t.spans, TraceSpan{
			Launch: id, Shard: sp.Shard, Attempt: sp.Attempt, Worker: sp.Worker,
			Phase: ws.Phase, Start: base + ws.Start, End: base + ws.End,
		})
	}
}

// cancel marks launches the scheduler abandoned cancelled: an open one
// closes now, one already closed by a report the loop never took is
// relabelled.
func (t *JobTrace) cancel(ids []int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.since(time.Now())
	for _, id := range ids {
		if _, open := t.open[id]; open {
			t.closeLocked(id, outcomeCancelled, now, 0, nil)
		} else if i, ok := t.byID[id]; ok {
			t.spans[i].Outcome = outcomeCancelled
		}
	}
}

// relabel rewrites a closed launch's outcome — the Run loop discovers a
// result is a duplicate only after the dispatch goroutine closed it ok.
func (t *JobTrace) relabel(id int, outcome string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.byID[id]; ok {
		t.spans[i].Outcome = outcome
	}
}

// addPhase records one master-level phase interval ("split", "merge");
// a no-op on the nil trace of an untraced run.
func (t *JobTrace) addPhase(phase string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, TraceSpan{
		Launch: -1, Shard: -1, Phase: phase,
		Start: t.since(start), End: t.since(end),
	})
}

// seal closes every still-open launch as cancelled (End = now) and
// freezes the trace: the span-lifecycle invariant that no exit path —
// completion, error, context cancellation, timeout — leaves an open
// span in the dump. Idempotent.
func (t *JobTrace) seal() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sealed {
		return
	}
	t.sealed = true
	now := t.since(time.Now())
	ids := make([]int, 0, len(t.open))
	for id := range t.open {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		sp := t.open[id]
		delete(t.open, id)
		sp.End = now
		sp.Outcome = outcomeCancelled
		t.byID[id] = len(t.spans)
		t.spans = append(t.spans, *sp)
	}
}

// Spans returns a copy of the recorded timeline in close order.
func (t *JobTrace) Spans() []TraceSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceSpan, len(t.spans))
	copy(out, t.spans)
	return out
}

// OpenLaunches reports the launches still in flight — zero on any
// sealed trace.
func (t *JobTrace) OpenLaunches() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.open)
}

// Outcomes counts launch-level spans (map and reduce) by outcome.
func (t *JobTrace) Outcomes() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]int{}
	for _, sp := range t.spans {
		if sp.Phase == "task" || sp.Phase == "rtask" {
			out[sp.Outcome]++
		}
	}
	return out
}

// WriteJSON dumps the timeline as JSON Lines. The field names reuse the
// trace.Event schema (job/stage/phase/task/start/end — stage carries the
// attempt, task the shard) with the launch ordinal, worker and outcome
// as extra fields, so trace.ReadJSON and its extraction helpers parse
// the dump unchanged while trace-aware tooling sees the full identity.
func (t *JobTrace) WriteJSON(w io.Writer) error {
	type line struct {
		Job string `json:"job"`
		TraceSpan
		TraceID string `json:"trace"`
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sp := range t.Spans() {
		if err := enc.Encode(line{Job: t.Job, TraceSpan: sp, TraceID: t.ID}); err != nil {
			return fmt.Errorf("netmr: encode trace span: %w", err)
		}
	}
	return bw.Flush()
}

// ReadTraceJSON parses a WriteJSON dump back into a JobTrace (sealed;
// suitable for rendering reports offline). Lines with unknown extra
// fields parse fine; the job and trace ID are taken from the first line.
func ReadTraceJSON(r io.Reader) (*JobTrace, error) {
	type line struct {
		Job string `json:"job"`
		TraceSpan
		TraceID string `json:"trace"`
	}
	t := &JobTrace{sealed: true, open: map[int]*TraceSpan{}, byID: map[int]int{}}
	dec := json.NewDecoder(r)
	for {
		var l line
		if err := dec.Decode(&l); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("netmr: decode trace span: %w", err)
		}
		if t.Job == "" {
			t.Job, t.ID = l.Job, l.TraceID
		}
		if l.End < l.Start {
			return nil, fmt.Errorf("netmr: trace span ends before it starts: %+v", l.TraceSpan)
		}
		t.spans = append(t.spans, l.TraceSpan)
	}
	return t, nil
}

// DerivedStats reconstructs the master-side walls Breakdown needs from
// the trace's own spans — for reports rendered offline from a WriteJSON
// dump, where the original Stats is gone. Each master phase span is its
// wall, rounded to the nanosecond it was measured in, so Breakdown gives
// the same Ws from a dump as from the live Stats; Workers counts the
// distinct workers that ran launches.
func (t *JobTrace) DerivedStats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s Stats
	workers := map[string]bool{}
	var last float64
	for _, sp := range t.spans {
		if sp.End > last {
			last = sp.End
		}
		switch sp.Phase {
		case "split":
			s.SplitWall = wall(sp)
		case "merge":
			s.MergeWall = wall(sp)
		case "reduce":
			// Master-level reduce phase only: a worker's "reduce" sub-span
			// shares the name but rides a launch ordinal.
			if sp.Launch < 0 {
				s.ReduceWall = wall(sp)
			}
		case "task", "rtask":
			if sp.Worker != "" {
				workers[sp.Worker] = true
			}
		}
	}
	s.Workers = len(workers)
	s.TotalWall = time.Duration(last * float64(time.Second))
	return s
}

// wall is sp's duration as the time.Duration it was measured as.
func wall(sp TraceSpan) time.Duration {
	return time.Duration(math.Round(sp.Duration() * float64(time.Second)))
}

// PhaseBreakdown is the wall-clock attribution of one traced Run into
// the IPSO phases, in seconds. The headline accounts are exact by
// construction: MaxTask + MaxReduce + Ws + Wo = TotalWall, matching the
// parallel-time denominator of the speedup derivation (Eq. 8 rearranged,
// as core.SpeedupSweep consumes it). The reduce tasks keep the per-key
// fold out of Ws and in Reduce — distributed Wp, paced by the slowest
// reduce task — leaving Ws only the master's merge window: for Run what
// is left of the union of the R disjoint partition streams into one map
// when the last result lands (the rest overlaps the reduce tasks),
// nothing for RunResult.
// The remaining fields attribute where Wo actually went.
type PhaseBreakdown struct {
	Workers int

	Wp        float64 // Σ map+combine over winning launches (parallelizable compute)
	Ws        float64 // master merge window, Stats.MergeWall (serial residue)
	Wo        float64 // TotalWall − MaxTask − MaxReduce − Ws: scale-out-induced overhead
	MaxTask   float64 // max per-winning-launch map+combine: measured E[max Tp,i]
	Reduce    float64 // Σ worker-side fold over winning reduce launches (distributed Wp)
	MaxReduce float64 // max per-winning-reduce-launch fold: the reduce wave's critical path

	TotalWall float64

	// Wo attribution (worker-reported where available):
	Decode    float64 // wire decode of task frames (winning launches)
	Partition float64 // worker-side hash splitting (winning launches)
	Encode    float64 // wire-shape result building (winning launches)
	Fetch     float64 // reducer-side shuffle gathers (winning reduce launches)
	Await     float64 // early reducers idle between morelocs deliveries
	Spill     float64 // out-of-core writes: spill-run flushes under memory pressure
	Replicate float64 // mapper-side replica pushes to peer workers
	RPCGap    float64 // winning launch round-trip time not covered by worker spans
	Wasted    float64 // launch time of failed, duplicate and cancelled launches

	// HiddenFetch is the portion of winning reducers' fetch+await time
	// that ran inside the split-phase window — shuffle work the early
	// dispatch hid under the map tail. It refines, never changes, the
	// invariant MaxTask+MaxReduce+Ws+Wo = TotalWall: hidden time was
	// never on the post-barrier critical path to begin with.
	HiddenFetch float64
}

// Breakdown attributes the traced run's wall clock. stats supplies the
// master-side phase walls (split/reduce/merge/total) the trace's own
// spans mirror; worker sub-phases refine the launch windows. Without
// worker spans (an untraced or mixed cluster) the whole launch window
// counts as compute — the pre-tracing approximation.
func (t *JobTrace) Breakdown(stats Stats) PhaseBreakdown {
	b := PhaseBreakdown{
		Workers:   stats.Workers,
		TotalWall: stats.TotalWall.Seconds(),
	}
	b.Ws = stats.MergeWall.Seconds()

	// Group worker sub-phases per launch, then account winning launches
	// into Wp (map) or Reduce (rtask) and the serialization phases,
	// losing launches into Wasted.
	type launchAcc struct {
		span    TraceSpan
		compute float64 // map + combine, or the reduce fold on an rtask
		decode  float64
		part    float64
		encode  float64
		fetch   float64
		await   float64
		spill   float64
		repl    float64
		hidden  float64 // fetch+await overlapped with the split window
		sub     float64 // all worker-reported time
	}
	accs := map[int]*launchAcc{}
	t.mu.Lock()
	spans := t.spans
	// The split-phase window first: fetch/await spans overlapping it ran
	// under the map tail (early shuffle), and the overlap is attributed
	// separately as HiddenFetch.
	var splitStart, splitEnd float64
	for i := range spans {
		sp := &spans[i]
		if sp.Launch < 0 && sp.Phase == "split" {
			splitStart, splitEnd = sp.Start, sp.End
		}
	}
	overlap := func(sp *TraceSpan) float64 {
		lo, hi := sp.Start, sp.End
		if lo < splitStart {
			lo = splitStart
		}
		if hi > splitEnd {
			hi = splitEnd
		}
		if hi > lo {
			return hi - lo
		}
		return 0
	}
	for i := range spans {
		sp := &spans[i]
		if sp.Launch < 0 {
			continue
		}
		acc := accs[sp.Launch]
		if acc == nil {
			acc = &launchAcc{}
			accs[sp.Launch] = acc
		}
		d := sp.Duration()
		switch sp.Phase {
		case "task", "rtask":
			acc.span = *sp
		case spanMap, spanCombine, spanReduce, spanMergeRuns:
			// A streaming merge of spilled runs is the reduce fold: same
			// per-key work, different input plumbing.
			acc.compute += d
			acc.sub += d
		case spanDecode:
			acc.decode += d
			acc.sub += d
		case spanPartition:
			acc.part += d
			acc.sub += d
		case spanFetch:
			acc.fetch += d
			acc.hidden += overlap(sp)
			acc.sub += d
		case spanAwait:
			acc.await += d
			acc.hidden += overlap(sp)
			acc.sub += d
		case spanEncode:
			acc.encode += d
			acc.sub += d
		case spanSpill:
			acc.spill += d
			acc.sub += d
		case spanReplicate:
			acc.repl += d
			acc.sub += d
		}
	}
	t.mu.Unlock()

	for _, acc := range accs {
		launchWall := acc.span.Duration()
		if acc.span.Outcome != outcomeOK {
			b.Wasted += launchWall
			continue
		}
		compute := acc.compute
		if acc.sub == 0 {
			// No worker spans: the whole round trip is the best
			// available stand-in for the task's compute.
			compute = launchWall
		}
		if acc.span.Phase == "rtask" {
			b.Reduce += compute
			if compute > b.MaxReduce {
				b.MaxReduce = compute
			}
		} else {
			b.Wp += compute
			if compute > b.MaxTask {
				b.MaxTask = compute
			}
		}
		b.Decode += acc.decode
		b.Partition += acc.part
		b.Encode += acc.encode
		b.Fetch += acc.fetch
		b.Await += acc.await
		b.HiddenFetch += acc.hidden
		b.Spill += acc.spill
		b.Replicate += acc.repl
		if gap := launchWall - acc.sub; gap > 0 && acc.sub > 0 {
			b.RPCGap += gap
		}
	}

	b.Wo = b.TotalWall - b.MaxTask - b.MaxReduce - b.Ws
	if b.Wo < 0 {
		b.Wo = 0
	}
	return b
}

// WriteReport renders a human-readable timeline and phase breakdown of
// the trace — the `netmr trace report` output.
func (t *JobTrace) WriteReport(w io.Writer, stats Stats) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "trace %s (job %q)\n", t.ID, t.Job)
	spans := t.Spans()
	outcomes := t.Outcomes()
	launches := 0
	for _, n := range outcomes {
		launches += n
	}
	fmt.Fprintf(bw, "launches %d: ok %d, failed %d, duplicate %d, cancelled %d; open %d\n",
		launches, outcomes[outcomeOK], outcomes[outcomeFailed],
		outcomes[outcomeDuplicate], outcomes[outcomeCancelled], t.OpenLaunches())

	// Timeline: master phases first, then launches in start order with
	// their worker sub-phases indented beneath.
	var phases, tasks []TraceSpan
	subs := map[int][]TraceSpan{}
	for _, sp := range spans {
		switch {
		case sp.Launch < 0:
			phases = append(phases, sp)
		case sp.Phase == "task" || sp.Phase == "rtask":
			tasks = append(tasks, sp)
		default:
			subs[sp.Launch] = append(subs[sp.Launch], sp)
		}
	}
	sort.Slice(phases, func(i, j int) bool { return phases[i].Start < phases[j].Start })
	sort.Slice(tasks, func(i, j int) bool {
		if tasks[i].Start != tasks[j].Start {
			return tasks[i].Start < tasks[j].Start
		}
		return tasks[i].Launch < tasks[j].Launch
	})
	for _, sp := range phases {
		fmt.Fprintf(bw, "%-9s %s\n", sp.Phase, fmtWindow(sp))
	}
	for _, sp := range tasks {
		kind := "shard"
		if sp.Phase == "rtask" {
			kind = "rpart"
		}
		fmt.Fprintf(bw, "launch %3d %s %3d attempt %d %-9s %s worker %s\n",
			sp.Launch, kind, sp.Shard, sp.Attempt, sp.Outcome, fmtWindow(sp), sp.Worker)
		ss := subs[sp.Launch]
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
		for _, sub := range ss {
			fmt.Fprintf(bw, "    %-9s %s\n", sub.Phase, fmtWindow(sub))
		}
	}

	b := t.Breakdown(stats)
	fmt.Fprintf(bw, "phase accounting (n=%d): Wp %.3fms  Ws %.3fms  Wo %.3fms  max-task %.3fms  total %.3fms\n",
		b.Workers, b.Wp*1e3, b.Ws*1e3, b.Wo*1e3, b.MaxTask*1e3, b.TotalWall*1e3)
	if b.Reduce > 0 {
		fmt.Fprintf(bw, "distributed reduce: Σfold %.3fms  max-rtask %.3fms  fetch %.3fms\n",
			b.Reduce*1e3, b.MaxReduce*1e3, b.Fetch*1e3)
	}
	if b.Await > 0 || b.HiddenFetch > 0 {
		fmt.Fprintf(bw, "pipelined shuffle: await %.3fms  hidden-under-map %.3fms\n",
			b.Await*1e3, b.HiddenFetch*1e3)
	}
	fmt.Fprintf(bw, "Wo attribution: decode %.3fms  partition %.3fms  encode %.3fms  rpc-gap %.3fms  wasted %.3fms\n",
		b.Decode*1e3, b.Partition*1e3, b.Encode*1e3, b.RPCGap*1e3, b.Wasted*1e3)
	if b.Spill > 0 || b.Replicate > 0 {
		fmt.Fprintf(bw, "out-of-core: spill %.3fms  replicate %.3fms\n",
			b.Spill*1e3, b.Replicate*1e3)
	}
	if b.Wp > 0 && b.Workers > 0 {
		q := float64(b.Workers) * b.Wo / b.Wp
		fmt.Fprintf(bw, "derived: epsilon-input (Wp, Ws) = (%.3fms, %.3fms), q(n) = n*Wo/Wp = %.4f\n",
			b.Wp*1e3, b.Ws*1e3, q)
	}
	return bw.Flush()
}

// fmtWindow renders a span window compactly in milliseconds.
func fmtWindow(sp TraceSpan) string {
	dur := sp.Duration() * 1e3
	if math.IsNaN(dur) || math.IsInf(dur, 0) {
		dur = 0
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "[%9.3f → %9.3f ms, %8.3f ms]", sp.Start*1e3, sp.End*1e3, dur)
	return sb.String()
}
