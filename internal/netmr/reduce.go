package netmr

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"ipso/internal/obs"
)

// Master-side half of the distributed reduce: after the split barrier the
// R partitions go back out to the workers as reduce tasks, through the
// same scheduling loop as map shards (sched.go). The master never folds a
// key here — its remaining job is routing: telling each reducer where the
// winning map outputs live (the gather plan) and carrying inline the
// copies only it holds. With EarlyShuffle, reduce tasks start before the
// barrier on the workers the map tail leaves idle.

// errEarlyAborted marks an early reduce launch the master itself called
// back (its worker was needed for a map retry). The reduce phase requeues
// the partition without charging the attempt budget — an abort is the
// master's choice, not a failure.
var errEarlyAborted = errors.New("netmr: early reduce launch aborted")

// newJobRun readies one Run's state before the map phase: the map-output
// records, and the reduce launch reports, which exist this early because
// early launches start under the map tail.
func (m *Master) newJobRun(name string, job Job, records []string, shards int, stats *Stats) *jobRun {
	cfg := m.cfg
	stats.Reducers = cfg.Reducers
	// The buffers cover every lineage the reduce phase can start plus one
	// early launch per partition, so no reporter can ever block.
	rcap := cfg.Reducers * (1 + cfg.MaxAttempts*(1+cfg.SpeculationMaxClones))
	return &jobRun{
		m: m, name: name, job: job, runID: fmt.Sprintf("%s#%d", name, m.runSeq.Add(1)),
		records: records, shards: shards, stats: stats, ledger: newPerWorkerLedger(),
		mapLocs:       make(map[int]string, shards),
		replicaLocs:   make(map[int]string, shards),
		replicaParts:  make(map[int][]partitionPartial),
		out:           newOutputs(cfg.Reducers, len(records)),
		rResults:      make(chan launchDone, rcap),
		rFails:        make(chan launchFail, rcap),
		earlyLaunched: map[int]bool{},
		earlyActive:   map[int]chan message{},
	}
}

// accept takes a shard's winning output, persisted on its worker: it
// records whose shuffle listener holds the task's partitions, and where
// the durable copy lives — a peer replica when the push succeeded, the
// inline partition set on the master otherwise — and streams the
// location to every running early reducer.
func (r *jobRun) accept(d launchDone) {
	id := d.task.id
	r.mapLocs[id] = d.fetchAddr
	if d.repAddr != "" {
		r.replicaLocs[id] = d.repAddr
	} else if d.parts != nil {
		r.replicaParts[id] = d.parts
	}
	// Exactly once per task per launch: the launch's plan covered the
	// tasks stored before it, this covers the ones after — both on the
	// scheduling goroutine.
	for p, updates := range r.earlyActive {
		u := message{Type: "morelocs", Run: r.runID, TaskID: p,
			Locs: []fetchLoc{{Addr: d.fetchAddr, Tasks: []int{id}}}}
		if d.repAddr != "" {
			u.Reps = []fetchLoc{{Addr: d.repAddr, Tasks: []int{id}}}
		}
		updates <- u
		r.stats.LocsStreamed++
		r.m.metrics.locsStreamed.Inc()
	}
	r.absorb(d)
	r.stats.Completed++
	r.stats.MapOutputsStored++
	r.m.metrics.mapOutputs.With("stored").Inc()
}

// absorb adds what a stored map output or a reduce result reports of
// spill runs and compression savings to the run's accounts.
func (r *jobRun) absorb(d launchDone) {
	if d.spills > 0 {
		r.stats.SpillRuns += d.spills
		r.stats.SpilledBytes += d.spilled
		r.m.metrics.spillRuns.Add(float64(d.spills))
		r.m.metrics.spilledBytes.Add(float64(d.spilled))
	}
	if d.compBytes > 0 {
		r.stats.CompressedBytes += d.compBytes
		r.m.metrics.compressedBytes.Add(float64(d.compBytes))
	}
}

// reduceTail runs the reduce phase after the barrier: the per-key fold
// happens on the workers, and the R disjoint, key-sorted streams of
// chunks that come back are the result. For Run's callers the chunks are
// also unioned into the one map they are owed, written to asMap — O(keys)
// inserts, no Reduce/Combine calls — by a goroutine that inserts each
// chunk as it is taken, so the merge window holds only what is left of
// it when the last result lands. RunResult's (asMap nil) holds nothing.
func (r *jobRun) reduceTail(ctx context.Context, deadline <-chan time.Time, splitStart, barrier time.Time, asMap *map[string]float64) (*Result, error) {
	m, stats := r.m, r.stats
	var union chan map[string]float64
	if asMap != nil {
		union = make(chan map[string]float64, 1)
		quit := make(chan struct{})
		defer close(quit)
		go func() { union <- r.out.union(quit) }()
	}
	_, reduceSpan := obs.StartSpan(ctx, "reduce")
	err := r.runReducePhase(ctx, deadline)
	reduceSpan.End()
	reduceEnd := time.Now()
	stats.ReduceWall = reduceEnd.Sub(barrier)
	m.metrics.reduceSeconds.Observe(stats.ReduceWall.Seconds())
	m.metrics.shuffleBytes.Add(float64(stats.ShuffleBytes))
	r.trc.addPhase("reduce", barrier, reduceEnd)
	if err != nil {
		return nil, err
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
	stats.TotalWall = end.Sub(splitStart)
	m.metrics.mergeSeconds.Observe(stats.MergeWall.Seconds())
	return &Result{parts: r.out.chunks}, nil
}

// runReducePhase assigns the R reduce partitions to workers until each
// one's output stream has ended in r.out. Each dispatch plans its gather
// against the liveness view of that instant (gatherPlan); the fold output
// is byte-identical on every route — reducers order partials by map task
// id before folding, not by arrival.
//
// Early launches are already in flight when the phase starts, so they
// enter the loop as seeded flights rather than queued tasks; each reports
// exactly once on the reduce channels, possibly into their buffers before
// this phase drains them. An early launch the master aborted fails with
// errEarlyAborted and requeues without charging the attempt budget.
func (r *jobRun) runReducePhase(ctx context.Context, deadline <-chan time.Time) error {
	m := r.m
	ph := &phase{
		tasks: m.cfg.Reducers, kind: "rtask", noun: "reduce partition", maxBatch: 1,
		results: r.rResults, fails: r.rFails, seeded: r.earlyLaunched,
		launch: func(w *workerHandle, batch []shardTask, launches []int) {
			t := batch[0]
			// Planned here, on the loop's goroutine: the plan reads and
			// fills the shared replica cache and stats.
			locs, inline, reps, _ := r.gatherPlan(t.id, false)
			go r.dispatchReduce(w, t, message{
				Type: "reducetask", Job: r.name, TaskID: t.id, Attempt: t.attempts, Run: r.runID,
				Locs: locs, Parts: inline, Reps: reps, Trace: r.trc.frameID(),
			}, launchOf(launches, 0), nil)
		},
		accept: func(d launchDone) {
			r.stats.ReduceTasks++
			r.stats.ShuffleBytes += d.bytes
			if d.failovers > 0 {
				r.stats.Failovers += d.failovers
				m.metrics.failovers.Add(float64(d.failovers))
			}
			r.absorb(d)
			m.metrics.reduceTasks.With("ok").Inc()
		},
		failed: func(err error) bool {
			if errors.Is(err, errEarlyAborted) {
				return true
			}
			m.metrics.reduceTasks.With("failed").Inc()
			return false
		},
	}
	if err := m.schedule(ctx, ph, r.stats, r.trc, deadline); err != nil {
		return err
	}
	if !r.recoveryAt.IsZero() {
		r.stats.RecoveryWall = time.Since(r.recoveryAt)
		m.metrics.recoverySeconds.Observe(r.stats.RecoveryWall.Seconds())
	}
	return nil
}

// gatherPlan routes partition p's gather against the shuffle-address
// liveness of this instant: each live holder with the (sorted) map tasks
// to fetch from it, the replica holders the reducer may fail over to
// worker-locally, and inline the partition's slice of every output only
// the master still has. A map output whose primary died is read from its
// live replica, else from the master-held copy, else re-executed from
// lineage on the master and cached where an inline copy would have been,
// so R partitions pay for one re-execution. An early plan (launched
// before the barrier) refuses that re-execution instead — ok false: the
// barrier path recovers — does not start the recovery clock, and keeps
// the empty inline sections too, so the reducer's coverage count can
// reach Total. Runs on the scheduling goroutine: it mutates the replica
// cache and stats.
func (r *jobRun) gatherPlan(p int, early bool) (locs []fetchLoc, inline []partitionPartial, reps []fetchLoc, ok bool) {
	m := r.m
	byAddr := map[string][]int{}
	repBy := map[string][]int{}
	for task := 0; task < r.shards; task++ {
		addr, stored := r.mapLocs[task]
		if !stored {
			continue
		}
		rep, hasRep := r.replicaLocs[task]
		hasRep = hasRep && m.addrAlive(rep)
		if m.addrAlive(addr) {
			byAddr[addr] = append(byAddr[addr], task)
			if hasRep {
				repBy[rep] = append(repBy[rep], task)
			}
			continue
		}
		if !early && r.recoveryAt.IsZero() {
			r.recoveryAt = time.Now()
		}
		if hasRep {
			byAddr[rep] = append(byAddr[rep], task)
			r.stats.ReplicaFetches++
			m.metrics.replicaFetches.Inc()
			continue
		}
		parts, held := r.replicaParts[task]
		if !held {
			if early {
				return nil, nil, nil, false
			}
			// Primary and replica both gone: re-execute the map task.
			if r.scratch == nil {
				r.scratch = new(shardScratch)
			}
			parts = runShardPartitioned(r.job, r.shardRecords(task), r.scratch, m.cfg.Reducers, nil)
			r.replicaParts[task] = parts
			m.metrics.mapReexecs.Inc()
		}
		if sec := partOf(parts, p); early || len(sec) > 0 {
			inline = append(inline, partitionPartial{ID: task, Partial: sec})
		}
	}
	return sortedLocs(byAddr), inline, sortedLocs(repBy), true
}

// sortedLocs lists the holders of by in address order.
func sortedLocs(by map[string][]int) []fetchLoc {
	addrs := make([]string, 0, len(by))
	for addr := range by {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	locs := make([]fetchLoc, 0, len(addrs))
	for _, addr := range addrs {
		locs = append(locs, fetchLoc{Addr: addr, Tasks: by[addr]})
	}
	return locs
}

// dispatchReduce runs one reduce launch on its own goroutine and reports
// it exactly once on the reduce channels. An early launch (updates
// non-nil) forwards the streamed morelocs updates until the map phase
// closes the stream (barrier or abort), then collects the reply: the
// partition's chunks, each handed to r.out as it lands, up to the result
// frame with the last. A chunk r.out refuses fails the launch. A reply
// that is not the partition's chunk or result drops the worker, with two
// exceptions that return it to the pool: a reducer's "the fetch failed"
// report (an error frame naming the holder address), where the reducer
// is healthy and the holder is not — the holder is marked dead and the
// retry re-plans around the loss — and an aborted early launch's
// acknowledgement.
func (r *jobRun) dispatchReduce(w *workerHandle, t shardTask, fr message, launch int, updates <-chan message) {
	m := r.m
	start := time.Now()
	err := w.c.send(fr, m.cfg.TaskTimeout)
	aborted := false
	for err == nil && updates != nil {
		u, open := <-updates
		if !open {
			break
		}
		aborted = aborted || u.Message == "abort"
		err = w.c.send(u, m.cfg.TaskTimeout)
	}
	var reply message
	for err == nil {
		if reply, err = w.c.recv(m.cfg.TaskTimeout); err != nil || reply.TaskID != t.id || reply.Type != "chunk" && reply.Type != "result" {
			break
		}
		if err = r.out.admit(t.id, reply.Total, reply.Folded, reply.Type == "result", reply.Bytes); reply.Type == "result" {
			break
		}
	}
	elapsed := time.Since(start)
	if err == nil {
		switch {
		// The worker rejoins the pool before its report: the report may
		// end the run, whose release goes to the pool.
		case reply.Type == "result" && reply.TaskID == t.id:
			r.landed(w, elapsed, launch, reply.Spans)
			m.idle <- w
			r.rResults <- launchDone{
				task: t, bytes: reply.Bytes,
				compBytes: reply.CompBytes, spills: reply.Spills, spilled: reply.Spilled,
				failovers: reply.Failovers, elapsed: elapsed, launch: launch,
			}
			return
		case reply.Type == "error" && reply.TaskID == t.id && (reply.Fetch != "" || aborted):
			// An abort acknowledgement is not a failure: the partition
			// goes back to the queue without charging its budget.
			outcome, ferr := outcomeCancelled, errEarlyAborted
			if reply.Fetch != "" {
				if !r.over.Load() { // after the release every holder refuses the run
					m.markAddrDead(reply.Fetch)
				}
				outcome, ferr = outcomeFailed, fmt.Errorf("netmr: reduce partition %d: fetch from %s failed: %s", t.id, reply.Fetch, reply.Message)
			}
			r.trc.closeLaunch(launch, outcome, nil)
			m.idle <- w
			r.rFails <- launchFail{task: t, err: ferr}
			return
		}
		what := "reduce partition"
		if updates != nil {
			what = "early reduce partition"
		}
		detail := reply.Message
		if detail == "" {
			detail = fmt.Sprintf("frame %q (task %d)", reply.Type, reply.TaskID)
		}
		err = fmt.Errorf("netmr: worker %s failed %s %d: %s", w.id, what, t.id, detail)
	}
	m.dropWorker(w) // before the report, as in dispatchMap
	r.lost(w, elapsed, launch)
	r.rFails <- launchFail{task: t, err: err}
}

// release tells every idle worker, once, that the run is over, so each
// frees the run's map outputs, replicas and spill files now. Nothing
// answers it. A worker busy with an abandoned launch misses it, and the
// next run's first output evicts the run there instead.
func (r *jobRun) release() {
	if r.over.Swap(true) {
		return
	}
	m := r.m
	for _, w := range m.drainIdle() {
		if w.c.send(message{Type: "release", Run: r.runID}, m.cfg.HeartbeatTimeout) != nil {
			m.dropWorker(w)
			continue
		}
		m.idle <- w
	}
}

// earlyOK reports whether a spare worker should start an early reduce
// task: only in the map tail — a non-empty queue means shards still need
// workers — and only once a map output is stored, since a launch with
// none known buys nothing over waiting for the next mapdone.
func (r *jobRun) earlyOK(queued int) bool {
	return !r.earlyOff && len(r.earlyLaunched) < r.m.cfg.Reducers && queued == 0 && len(r.mapLocs) > 0
}

// launchEarly starts the lowest partition not yet launched (earlyOK saw
// one) on a spare worker: a reducetask naming the map outputs stored so
// far plus the run's total map count. Every later winning output streams
// to it as a morelocs frame, so the reducer fetches under the map tail
// and folds the moment its coverage completes.
func (r *jobRun) launchEarly(w *workerHandle) {
	m := r.m
	p := 0
	for r.earlyLaunched[p] {
		p++
	}
	locs, inline, reps, ok := r.gatherPlan(p, true)
	if !ok {
		// An intermediate would need lineage re-execution; leave recovery
		// to the barrier path and stop early dispatching for this run
		// (earlyOK now keeps the loop from drawing a worker again).
		r.earlyOff = true
		m.idle <- w
		return
	}
	updates := make(chan message, r.shards+2)
	r.earlyLaunched[p] = true
	r.earlyActive[p] = updates
	r.stats.EarlyReduceTasks++
	m.metrics.earlyLaunches.Inc()
	launch := -1
	if r.trc != nil {
		launch = r.trc.openLaunch("rtask", p, 0, w.id)
	}
	go r.dispatchReduce(w, shardTask{id: p}, message{
		Type: "reducetask", Job: r.name, TaskID: p, Run: r.runID,
		Locs: locs, Parts: inline, Reps: reps, Total: r.shards, Trace: r.trc.frameID(),
	}, launch, updates)
}

// abortOneEarly calls an early launch back because a map retry needs its
// worker; its partition reruns from the reduce phase's queue.
func (r *jobRun) abortOneEarly() {
	if len(r.earlyActive) == 0 {
		return
	}
	// Deterministic pick: the highest partition launched last and has
	// overlapped the least fetching — the cheapest launch to lose.
	maxP := -1
	for p := range r.earlyActive {
		maxP = max(maxP, p)
	}
	r.endEarly(maxP, true)
}

// closeEarly ends every open update stream: complete at the barrier, or
// aborted on an error return mid-map so no early reducer stays blocked in
// its stream recv.
func (r *jobRun) closeEarly(abort bool) {
	ps := make([]int, 0, len(r.earlyActive))
	for p := range r.earlyActive {
		ps = append(ps, p)
	}
	sort.Ints(ps)
	for _, p := range ps {
		r.endEarly(p, abort)
	}
}

// endEarly closes partition p's update stream, after an abort marker when
// abort is set.
func (r *jobRun) endEarly(p int, abort bool) {
	if abort {
		r.earlyActive[p] <- message{Type: "morelocs", Run: r.runID, TaskID: p, Message: "abort"}
		r.stats.EarlyAborts++
		r.m.metrics.earlyAborts.Inc()
	}
	close(r.earlyActive[p])
	delete(r.earlyActive, p)
}
