package netmr

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

// Master-side half of the distributed reduce: the R partitions go out to
// the workers as reduce tasks in the same scheduling loop as the map
// shards (sched.go), as soon as a map output is stored. The master never
// folds a key, holds a map output or runs a map function here — its job
// is routing: telling each reducer where the winning map outputs live
// (the gather plan), and streaming the locations of the outputs that land
// after its launch. A map output with no live copy left is a map task to
// run again (reopen).

// errCalledBack marks a reduce launch the master itself took back: its
// worker was needed for a map task. The loop requeues the partition
// without charging the attempt budget — the master's choice, not a
// failure.
var errCalledBack = errors.New("netmr: reduce launch called back")

// locStream is a reduce launch's location stream: its partition, the
// morelocs updates its dispatch goroutine forwards, buffered for every
// one it can get (one per awaited map output, plus an abort), and the map
// tasks whose output was not located when it launched and has not been
// sent since. Each launch has its own: a partition may have two launches
// out, a speculative clone's and the one it shadows.
type locStream struct {
	p       int
	home    string // the reducer's shuffle address
	updates chan message
	awaits  []int
}

// reduceLaunch is one planned reduce launch: its task, its frame, its
// trace launch ordinal and its location stream, nil when the plan located
// every map output. A launch a map batch carries (carry) is mapping until
// the master has read the batch's answers (dispatchMap): till then its
// worker is not free, and a batch that straggles past the barrier has its
// partition run elsewhere too (spare).
type reduceLaunch struct {
	t       shardTask
	fr      message
	launch  int
	s       *locStream
	mapping atomic.Bool
}

// newJobRun readies one Run's state: the task graph, the map-output
// records and the reduce output streams.
func (m *Master) newJobRun(name string, records []string, shards int, stats *Stats) *jobRun {
	cfg := m.cfg
	stats.Reducers = cfg.Reducers
	// Every launch reports exactly once, and the buffers take every launch
	// that can be out at once, so no reporter blocks after Run returns: a
	// task's lineages (its first and its clones) each have one launch out
	// at a time, a retry or requeue leaving only after the report.
	capacity := (shards + cfg.Reducers) * (1 + maxClones)
	r := &jobRun{
		m: m, name: name, runID: fmt.Sprintf("%s#%d", name, m.runSeq.Add(1)),
		records: records, shards: shards, stats: stats, ledger: &perWorkerLedger{by: map[string]*WorkerStats{}},
		results:     make(chan launchDone, capacity),
		fails:       make(chan launchFail, capacity),
		mapLocs:     make(map[int]string, shards),
		replicaLocs: make(map[int]string, shards),
		fetchDead:   map[string]bool{},
		out:         newOutputs(cfg.Reducers, len(records)),
		streams:     map[*locStream]bool{},
		calledBack:  map[*locStream]bool{},
	}
	r.maps, r.reduces = r.mapPhase(), r.reducePhase()
	return r
}

// accept takes a shard's winning output, persisted on its worker: it
// records whose shuffle listener holds the task's partitions and which
// peer holds its replica, if the push succeeded, and streams the location
// to every reduce launch that awaits it, but for a launch whose worker
// holds a copy: its reducer took that from its own store when it landed.
func (r *jobRun) accept(d launchDone) {
	id := d.task.id
	r.mapLocs[id] = d.fetchAddr
	if d.repAddr != "" {
		r.replicaLocs[id] = d.repAddr
	}
	// Exactly once per task per awaiting launch: the launch's plan covered
	// the outputs located before it, this covers the ones after — both on
	// the scheduling goroutine. A stream ends with its last awaited output.
	for s := range r.streams {
		i := slices.Index(s.awaits, id)
		if i < 0 {
			continue
		}
		if s.home != d.fetchAddr && (d.repAddr == "" || s.home != d.repAddr) {
			u := message{Type: "morelocs", Run: r.runID, TaskID: s.p,
				Locs: []fetchLoc{{Addr: d.fetchAddr, Tasks: []int{id}}}}
			if d.repAddr != "" {
				u.Reps = []fetchLoc{{Addr: d.repAddr, Tasks: []int{id}}}
			}
			s.updates <- u
		}
		if s.awaits = slices.Delete(s.awaits, i, i+1); len(s.awaits) == 0 {
			r.endStream(s, false)
		}
	}
	r.absorb(d)
	r.stats.Completed++
	r.stats.MapOutputsStored++
	r.m.metrics.mapOutputs.With("stored").Inc()
}

// reopen queues map task id to run again: its output has neither a live
// primary nor a live replica. The task is pending again, as before its
// first run, and no longer completed: its launch goes first, calling a
// reduce launch back if those hold every worker, and the reduce launches
// that await it are sent the re-run's location when it lands (accept).
func (r *jobRun) reopen(id int) {
	delete(r.mapLocs, id)
	delete(r.replicaLocs, id)
	r.maps.done[id] = false
	r.maps.pending++
	r.stats.Completed--
	r.maps.queue = append(r.maps.queue, shardTask{id: id, ph: r.maps})
	r.m.metrics.mapReexecs.Inc()
}

// absorb adds what a stored map output or a reduce result reports of
// spill runs to the run's accounts.
func (r *jobRun) absorb(d launchDone) {
	r.stats.SpillRuns += d.spills
	r.stats.SpilledBytes += d.spilled
	r.m.metrics.spillRuns.Add(float64(d.spills))
	r.m.metrics.spilledBytes.Add(float64(d.spilled))
}

// passBarrier closes the split window when no map task is pending any
// more, and opens the reduce window. A carried reduce launch still in its
// map part then waits on a batch whose shards won elsewhere: its partition
// is spared.
func (r *jobRun) passBarrier() {
	r.barrier = time.Now()
	r.stats.SplitWall = r.barrier.Sub(r.start)
	r.trc.addPhase("split", r.start, r.barrier)
	r.m.metrics.splitSeconds.Observe(r.stats.SplitWall.Seconds())
	r.spare()
}

// spare queues a sibling of each carried reduce launch still in its map
// part, so that no partition waits on a straggling batch: the sibling is
// the partition's speculative clone, and first-result-wins discards the
// later reply. A partition done, queued or cloned already gets none.
func (r *jobRun) spare() {
	ph := r.reduces
	for _, rl := range r.carried {
		p, f := rl.t.id, ph.inflight[rl.t.id]
		if !rl.mapping.Load() || ph.done[p] || ph.queued(p) || f == nil || f.clones >= maxClones {
			continue
		}
		f.clones++
		r.stats.Speculations++
		r.m.metrics.speculations.Inc()
		ph.queue = append(ph.queue, shardTask{id: p, ph: ph, speculative: true})
	}
}

// reducePhase is the R reduce partitions' phase. Each launch plans its
// gather against the liveness view of that instant (gatherPlan) and
// names the run's map count as Total, so a launch that awaits map outputs
// is sent them as they land (accept). The fold output is byte-identical
// on every route: reducers order partials by map task id.
func (r *jobRun) reducePhase() *phase {
	m := r.m
	ph := newPhase(m.cfg.Reducers, "rtask", "reduce partition")
	ph.launch = func(w *workerHandle, batch []shardTask, launches []int) {
		go r.dispatchReduce(w, r.planReduce(w, batch[0], launchOf(launches, 0), nil))
	}
	ph.accept = func(d launchDone) {
		r.stats.ReduceTasks++
		r.stats.ShuffleBytes += d.bytes
		r.stats.Failovers += d.failovers
		m.metrics.failovers.Add(float64(d.failovers))
		r.absorb(d)
		m.metrics.reduceTasks.With("ok").Inc()
	}
	return ph
}

// planReduce plans reduce task t's launch on w on the loop's goroutine:
// the plan reads the locations and may re-open map tasks. The launch
// awaits none of own, the map batch it rides with (if any): w runs it
// once those outputs are in its store.
func (r *jobRun) planReduce(w *workerHandle, t shardTask, launch int, own []shardTask) *reduceLaunch {
	locs, reps, awaits := r.gatherPlan()
	awaits = slices.DeleteFunc(awaits, func(id int) bool {
		return slices.ContainsFunc(own, func(o shardTask) bool { return o.id == id })
	})
	rl := &reduceLaunch{t: t, launch: launch, fr: message{
		Type: "reducetask", Job: r.name, TaskID: t.id, Attempt: t.attempts, Run: r.runID,
		Locs: locs, Reps: reps, Total: r.shards, Trace: r.trc.frameID(),
	}}
	if len(awaits) > 0 {
		rl.s = &locStream{p: t.id, home: w.fetch, updates: make(chan message, len(awaits)+1), awaits: awaits}
		r.streams[rl.s] = true
		if r.barrier.IsZero() {
			r.stats.EarlyReduceTasks++
			r.m.metrics.earlyLaunches.Inc()
		}
	}
	return rl
}

// gatherPlan routes a reduce launch's gather against the shuffle-address
// liveness of this instant: each live holder with the (sorted) map tasks
// to fetch from it, the replica holders the reducer may fail over to
// worker-locally, and the map tasks whose output is not located, which
// the launch awaits. A map output whose primary died is read from its
// live replica; with neither alive its task is re-opened and awaited like
// one not run yet. Runs on the scheduling goroutine: it mutates the task
// graph and stats.
func (r *jobRun) gatherPlan() (locs, reps []fetchLoc, awaits []int) {
	m := r.m
	byAddr := map[string][]int{}
	repBy := map[string][]int{}
	for task := 0; task < r.shards; task++ {
		addr, stored := r.mapLocs[task]
		if !stored {
			awaits = append(awaits, task)
			continue
		}
		rep, hasRep := r.replicaLocs[task]
		hasRep = hasRep && m.addrAlive(rep, r.fetchDead)
		if m.addrAlive(addr, r.fetchDead) {
			byAddr[addr] = append(byAddr[addr], task)
			if hasRep {
				repBy[rep] = append(repBy[rep], task)
			}
			continue
		}
		if r.recoveryAt.IsZero() {
			r.recoveryAt = time.Now()
		}
		if hasRep {
			byAddr[rep] = append(byAddr[rep], task)
			r.stats.ReplicaFetches++
			m.metrics.replicaFetches.Inc()
			continue
		}
		r.reopen(task)
		awaits = append(awaits, task)
	}
	return sortedLocs(byAddr), sortedLocs(repBy), awaits
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

// dispatchReduce sends reduce launch rl to w and runs it (awaitReduce).
func (r *jobRun) dispatchReduce(w *workerHandle, rl *reduceLaunch) {
	start := time.Now()
	r.awaitReduce(w, rl, start, w.c.send(rl.fr, exchangeTimeout))
}

// awaitReduce runs reduce launch rl on w, whose frame went out at start
// with error err, on its own goroutine, and reports it exactly once on
// the run's channels. A launch that awaits map outputs (rl.s non-nil)
// forwards the streamed morelocs updates, those queued together as one
// frame, until the loop closes the stream (the last awaited output
// located, or a call-back) or the reply begins: a reducer that took what
// it awaited from its own store may answer before the master has heard
// of all of it. The reply is the partition's chunks, each handed to r.out
// as it lands, up to the result frame with the last.
// A chunk r.out refuses fails the launch. A reply that is not the
// partition's chunk or result drops the worker, with two exceptions that
// return it to the pool: a reducer's "the fetch failed" report (an error
// frame naming the holder address), where the reducer is healthy and the
// holder is not — the holder is marked dead for the run and the retry
// re-plans around the loss — and a called-back launch's acknowledgement.
func (r *jobRun) awaitReduce(w *workerHandle, rl *reduceLaunch, start time.Time, err error) {
	m, t, launch, s := r.m, rl.t, rl.launch, rl.s
	aborted := false
	var reply message
	replied := false // reply holds the first, read while the updates went out
	if err == nil && s != nil {
		first := make(chan inFrame, 1)
		go func() {
			reply, err := w.c.recv(0)
			first <- inFrame{m: reply, err: err}
		}()
		updates := s.updates
		for err == nil && updates != nil {
			select {
			case f := <-first:
				reply, err, replied, updates = f.m, f.err, true, nil
			case u, open := <-updates:
				if !open {
					updates = nil
					break
				}
				// What is queued behind u leaves with it, one morelocs frame
				// with each holder's map tasks in one entry; an abort goes
				// alone and last.
				frames := []message{u}
				for len(updates) > 0 && frames[len(frames)-1].Message != "abort" {
					if v := <-updates; v.Message == "abort" {
						frames = append(frames, v)
					} else {
						frames[0].Locs = mergeLocs(frames[0].Locs, v.Locs)
						frames[0].Reps = mergeLocs(frames[0].Reps, v.Reps)
					}
				}
				aborted = aborted || frames[len(frames)-1].Message == "abort"
				err = w.c.sendFrames(frames, exchangeTimeout)
			}
		}
		if err == nil && !replied {
			timer := time.NewTimer(exchangeTimeout)
			select {
			case f := <-first:
				reply, err, replied = f.m, f.err, true
			case <-timer.C:
				err = fmt.Errorf("netmr: worker %s: no reply to reduce partition %d within %v", w.id, t.id, exchangeTimeout)
			}
			timer.Stop()
		}
	}
	for err == nil {
		if !replied {
			reply, err = w.c.recv(exchangeTimeout)
		}
		if replied = false; err != nil || reply.TaskID != t.id || reply.Type != "chunk" && reply.Type != "result" {
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
			m.metrics.rpcSeconds.With(w.id).Observe(elapsed.Seconds())
			r.ledger.book(w.id, elapsed, true)
			r.trc.closeLaunch(launch, outcomeOK, reply.Spans)
			m.idle <- w
			r.results <- launchDone{
				task: t, bytes: reply.Bytes,
				spills: reply.Spills, spilled: reply.Spilled,
				failovers: reply.Failovers, elapsed: elapsed, launch: launch, stream: s,
			}
			return
		case reply.Type == "error" && reply.TaskID == t.id && (reply.Fetch != "" || aborted):
			outcome, ferr := outcomeCancelled, errCalledBack
			if reply.Fetch != "" {
				m.addrMu.Lock()
				r.fetchDead[reply.Fetch] = true
				m.addrMu.Unlock()
				m.metrics.reduceTasks.With("failed").Inc()
				outcome, ferr = outcomeFailed, fmt.Errorf("netmr: reduce partition %d: fetch from %s failed: %s", t.id, reply.Fetch, reply.Message)
			}
			r.trc.closeLaunch(launch, outcome, nil)
			m.idle <- w
			r.fails <- launchFail{task: t, err: ferr, launch: launch, stream: s}
			return
		}
		detail := reply.Message
		if detail == "" {
			detail = fmt.Sprintf("frame %q (task %d)", reply.Type, reply.TaskID)
		}
		err = fmt.Errorf("netmr: worker %s failed reduce partition %d: %s", w.id, t.id, detail)
	}
	m.metrics.reduceTasks.With("failed").Inc()
	m.dropWorker(w) // before the report, as in dispatchMap
	r.lost(w, elapsed, launch)
	r.fails <- launchFail{task: t, err: err, launch: launch, stream: s}
}

// mergeLocs adds the map tasks of src's holders to dst's entries for the
// same address, or as entries of their own.
func mergeLocs(dst, src []fetchLoc) []fetchLoc {
	for _, l := range src {
		if i := slices.IndexFunc(dst, func(d fetchLoc) bool { return d.Addr == l.Addr }); i >= 0 {
			dst[i].Tasks = append(dst[i].Tasks, l.Tasks...)
		} else {
			dst = append(dst, l)
		}
	}
	return dst
}

// release tells every idle worker, once, that the run is over, so each
// frees the run's map outputs, replicas and spill files now. Nothing
// answers it. A worker busy with an abandoned launch misses it, and the
// next run's first output evicts the run there instead. The dropped
// workers' listeners the run kept serving are dead from here on.
func (r *jobRun) release() {
	if r.over.Swap(true) {
		return
	}
	m := r.m
	for _, w := range m.drainIdle() {
		if w.c.send(message{Type: "release", Run: r.runID}, heartbeatTimeout) != nil {
			m.dropWorker(w)
			continue
		}
		m.idle <- w
	}
	m.buryOrphans()
}

// callBack takes back the highest reduce launch still awaiting map
// outputs — it launched last and has overlapped the least fetching, the
// cheapest to lose — because a ready map task needs its worker; one whose
// map part has ended first, as only its worker is free to go at once. The
// launch acknowledges, and its partition is requeued free of charge.
func (r *jobRun) callBack() {
	rank := func(s *locStream) int {
		if slices.ContainsFunc(r.carried, func(rl *reduceLaunch) bool { return rl.s == s && rl.mapping.Load() }) {
			return s.p
		}
		return r.reduces.tasks + s.p
	}
	var last *locStream
	for s := range r.streams {
		if last == nil || rank(s) > rank(last) {
			last = s
		}
	}
	if last != nil {
		r.endStream(last, true)
		r.calledBack[last] = true
		r.stats.EarlyAborts++
		r.m.metrics.earlyAborts.Inc()
	}
}

// endStream closes location stream s, if it is still open, after an
// abort marker when abort is set.
func (r *jobRun) endStream(s *locStream, abort bool) {
	if !r.streams[s] {
		return
	}
	if abort {
		s.updates <- message{Type: "morelocs", Run: r.runID, TaskID: s.p, Message: "abort"}
	}
	close(s.updates)
	delete(r.streams, s)
}
