package netmr

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ipso/internal/runner"
)

// The partitioned, map-overlapped merge engine. The old merge was the
// runtime's textbook Ws(n): the master waited at the split barrier, then
// folded every worker partial through one goroutine — serial work that
// grows with the number of distinct keys shipped back, exactly the
// in-proportion serial portion the IPSO model (Eq. 7/8) says caps
// speedup. The engine attacks it on both axes:
//
//   - overlap: every arriving partial is folded the moment it lands,
//     while the map phase is still draining, so most merge work hides
//     under the split wall instead of extending the job past it;
//   - parallelism: keys are hash-partitioned (partitionIndex) and each
//     partition is owned by one folder goroutine — lock-free, because
//     ownership is the synchronization — then finalized in parallel via
//     runner.Map.
//
// Every map task ships its result already split per partition (presult
// frames), so feeding a result is handing each of its sections to the
// folder that owns the partition.

// valuesPool recycles the per-key value slices of the grouped (non
// Combine) merge across partitions and runs — the map values would
// otherwise be a fresh small slice per distinct key per job.
var valuesPool = sync.Pool{
	New: func() any {
		s := make([]float64, 0, 8)
		return &s
	},
}

// mergeEngine owns the partition accumulators of one Run.
type mergeEngine struct {
	job   Job
	parts int

	chans []chan section // Run loop → folders, one per partition, one slot per shard

	// Per-partition state, each slot owned by its folder goroutine until
	// the folders are joined. busy is atomic (nanoseconds) because the
	// Run loop samples it at the split barrier — overlapped() — while
	// the folders are still appending to it.
	accs   []map[string]float64    // Combine path: running fold
	groups []map[string]*[]float64 // Reduce path: grouped values (pooled slices)
	busy   []atomic.Int64          // fold + finalize wall per partition, ns

	folders  sync.WaitGroup
	finished bool
}

// newMergeEngine builds an engine for one Run of job with the given
// partition count and shard count (the folder channels' bound: every
// shard feeds exactly once, so the Run loop never blocks on a feed).
func newMergeEngine(job Job, parts, shards int) *mergeEngine {
	if parts < 1 {
		parts = 1
	}
	e := &mergeEngine{
		job:   job,
		parts: parts,
		chans: make([]chan section, parts),
		busy:  make([]atomic.Int64, parts),
	}
	if job.Combine != nil {
		e.accs = make([]map[string]float64, parts)
		for p := range e.accs {
			e.accs[p] = map[string]float64{}
		}
	} else {
		e.groups = make([]map[string]*[]float64, parts)
		for p := range e.groups {
			e.groups[p] = map[string]*[]float64{}
		}
	}
	for p := range e.chans {
		e.chans[p] = make(chan section, shards)
	}
	for p := 0; p < parts; p++ {
		e.folders.Add(1)
		go e.fold(p)
	}
	return e
}

// feed hands one winning shard result to the engine, each section to the
// folder that owns its partition. Called only from the Run loop; every
// folder channel holds a slot per shard, so it never blocks.
func (e *mergeEngine) feed(parts []partitionPartial) {
	for _, part := range parts {
		if len(part.Partial) > 0 {
			e.chans[part.ID] <- part.Partial
		}
	}
}

// fold is partition p's owner: it accumulates every chunk routed to p.
// No locks — only this goroutine touches accs[p]/groups[p] until
// folders.Wait returns (busy[p] is atomic for overlapped's sake).
func (e *mergeEngine) fold(p int) {
	defer e.folders.Done()
	add := func(k string, v float64) {
		g := e.groups[p]
		vs, ok := g[k]
		if !ok {
			vs = valuesPool.Get().(*[]float64)
			*vs = (*vs)[:0]
			g[k] = vs
		}
		*vs = append(*vs, v)
	}
	if e.accs != nil {
		add = func(k string, v float64) {
			acc := e.accs[p]
			if prev, ok := acc[k]; ok {
				acc[k] = e.job.Combine(prev, v)
			} else {
				acc[k] = v
			}
		}
	}
	for sec := range e.chans[p] {
		start := time.Now()
		sec.each(add)
		e.busy[p].Add(int64(time.Since(start)))
	}
}

// finalize closes the intake, joins the folders, reduces each partition
// in parallel on the context's runner pool, and unions the disjoint
// partitions into one exactly-sized result map. After finalize the
// engine is spent.
func (e *mergeEngine) finalize(ctx context.Context) (map[string]float64, error) {
	e.shutdown()
	finals := e.accs
	if e.groups != nil {
		reduced, err := runner.Map(ctx, e.parts, func(_ context.Context, p int) (map[string]float64, error) {
			start := time.Now()
			g := e.groups[p]
			out := make(map[string]float64, len(g))
			for k, vs := range g {
				out[k] = e.job.Reduce(k, *vs)
				valuesPool.Put(vs)
			}
			e.busy[p].Add(int64(time.Since(start)))
			return out, nil
		})
		if err != nil {
			return nil, err
		}
		finals = reduced
	}
	total := 0
	for _, m := range finals {
		total += len(m)
	}
	out := make(map[string]float64, total)
	for _, m := range finals {
		for k, v := range m {
			out[k] = v // partitions are disjoint: plain copy, no fold
		}
	}
	return out, nil
}

// overlapped reports the fold work the folders have performed so far.
// Sampled at the split barrier it is the Ws the engine actually hid
// under the map phase — the busy time, not the wall-clock window from
// the first feed, which is mostly idle waiting for map results and
// would overstate the overlap.
func (e *mergeEngine) overlapped() time.Duration {
	var total time.Duration
	for p := range e.busy {
		total += time.Duration(e.busy[p].Load())
	}
	return total
}

// shutdown closes the intake and joins the folders; it is idempotent, so
// a Run that errors out mid-job can abandon the engine without leaking
// its goroutines.
func (e *mergeEngine) shutdown() {
	if e.finished {
		return
	}
	e.finished = true
	for _, ch := range e.chans {
		close(ch)
	}
	e.folders.Wait()
}

// validateParts rejects a partition set whose ids fall outside [0, n):
// routing an attacker- or corruption-supplied id would index out of
// range, so a bad frame fails the launch instead.
func validateParts(parts []partitionPartial, n int) error {
	for _, p := range parts {
		if p.ID < 0 || p.ID >= n {
			return fmt.Errorf("netmr: partition id %d outside [0,%d)", p.ID, n)
		}
	}
	return nil
}
