package netmr

import (
	"fmt"
	"sync"
)

// Result is a job's output: the R partitions exactly as the reducers
// sent them — hash-disjoint, each the key-sorted chunks of its reducer's
// output stream, no map built at the master. The methods read it in
// place; only Map pays for a map of the whole output. A Result is
// immutable and safe for concurrent use.
type Result struct {
	parts [][]section // per partition, indexed by partitionIndex(key, len(parts)): its chunks in key order
}

// Len is the number of keys.
func (r *Result) Len() int {
	n := 0
	for _, chunks := range r.parts {
		for _, s := range chunks {
			n += s.count()
		}
	}
	return n
}

// Each calls fn on every pair in ascending key order: the reducer-side
// loser tree over the partitions, which are each sorted already.
func (r *Result) Each(fn func(key string, value float64)) {
	srcs := make([]*mergeSource, len(r.parts))
	for p, chunks := range r.parts {
		srcs[p] = chunksSource(p, chunks)
	}
	// Sections were checked on arrival, so walking them cannot fail.
	_ = mergeSources(srcs, func(s *mergeSource) error {
		fn(s.key, s.val)
		return nil
	})
}

// Map returns the output as one map, for callers that want that shape.
// It is built on every call, presized from the partitions' counts;
// nothing else in the Result shares it.
func (r *Result) Map() map[string]float64 {
	out := make(map[string]float64, r.Len())
	for _, chunks := range r.parts {
		for _, s := range chunks {
			s.addTo(out)
		}
	}
	return out
}

// outputs is a run's reduce output as the master takes it in: per
// partition one stream of chunks, whichever launch sent each first.
// Chunk boundaries depend only on the fold's output bytes, and those are
// the same on every route, so chunk k of a partition is the same from
// every launch: the first to arrive is kept, and every later one, from a
// retry, a speculative clone or a re-fold, must equal it. A launch that
// dies mid-stream leaves the chunks it sent, and its retry's copies of
// them are checked and skipped.
type outputs struct {
	mu     sync.Mutex
	chunks [][]section // per partition: the chunks taken, in stream order
	ended  []bool      // per partition: its last chunk, the result frame's, is among them
	tail   []string    // per partition: the last key taken
	pairs  float64     // output pairs of the partitions heard from, exact or projected ...
	heard  int         // ... and how many those are
	limit  float64     // what a projection is capped at: the run's input records
	wake   chan struct{}
}

func newOutputs(partitions, limit int) *outputs {
	return &outputs{
		chunks: make([][]section, partitions),
		ended:  make([]bool, partitions),
		tail:   make([]string, partitions),
		limit:  float64(limit),
		wake:   make(chan struct{}, 1),
	}
}

// admit takes chunk k of partition p from a launch; last marks the
// result frame's, projected the first chunk's projected output bytes. A
// chunk that does not match or continue the stream taken is the
// launch's error.
func (o *outputs) admit(p, k int, chunk section, last bool, projected int64) error {
	first, tail := chunk.bounds() // outside the lock: a walk of the chunk
	o.mu.Lock()
	defer o.mu.Unlock()
	taken := o.chunks[p]
	if k < len(taken) {
		if taken[k] != chunk || last != (o.ended[p] && k == len(taken)-1) {
			return fmt.Errorf("netmr: reduce partition %d: chunk %d differs from the one taken", p, k)
		}
		return nil
	}
	// A new chunk is next in line, in key order after the last one, and
	// empty only as a whole, empty partition.
	if k > len(taken) || o.ended[p] || chunk == "" && (k > 0 || !last) || k > 0 && first <= o.tail[p] {
		return fmt.Errorf("netmr: reduce partition %d: chunk %d does not continue the %d taken", p, k, len(taken))
	}
	o.chunks[p], o.ended[p], o.tail[p] = append(taken, chunk), last, tail
	if k == 0 {
		// A whole partition counts itself exactly; a first chunk scales its
		// pairs by the bytes its reducer projects. A job may well emit more
		// keys than it reads records, but the cap keeps a bogus projection
		// from costing more than the input does. A count is not capped:
		// the frame decode checked it against the chunk's bytes.
		n := float64(chunk.count())
		if !last && len(chunk) > 0 {
			n = max(n, min(float64(projected)/float64(len(chunk))*n, o.limit))
		}
		o.pairs += n
		o.heard++
	}
	select {
	case o.wake <- struct{}{}:
	default:
	}
	return nil
}

// presize is the size union makes its map with: the pairs of the
// partitions heard from, scaled to all of them. o.mu is held.
func (o *outputs) presize() int {
	return int(o.pairs * float64(len(o.chunks)) / float64(o.heard))
}

// union builds Run's map from the chunks as they are taken, on its own
// goroutine, so only the chunks that land last are left for the merge
// window. The map is presized once, when the first partition is heard
// from. It returns when every partition has ended, or nil when quit
// closes first.
func (o *outputs) union(quit <-chan struct{}) map[string]float64 {
	var out map[string]float64
	done := make([]int, len(o.chunks)) // per partition: chunks inserted
	var todo []section
	for {
		todo = todo[:0]
		complete := true
		o.mu.Lock()
		for p, taken := range o.chunks {
			todo = append(todo, taken[done[p]:]...)
			done[p] = len(taken)
			complete = complete && o.ended[p]
		}
		if out == nil && o.heard > 0 {
			out = make(map[string]float64, o.presize())
		}
		o.mu.Unlock()
		for _, s := range todo {
			s.addTo(out)
		}
		if complete {
			return out
		}
		select {
		case <-o.wake:
		case <-quit:
			return nil
		}
	}
}
