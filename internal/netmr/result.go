package netmr

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Result is a job's output: the R partitions exactly as the reducers
// sent them — hash-disjoint, each the key-sorted chunks of its reducer's
// output stream, no map built at the master. The methods read it in
// place; only Map pays for a map of the whole output. A Result is
// immutable and safe for concurrent use.
type Result struct {
	parts [][]section // per partition, indexed by partitionIndex(key, len(parts)): its chunks in key order

	indexOnce sync.Once
	index     [][][]int32 // per partition, per chunk: byte offset of every pair, built by the first Lookup
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
		srcs[p] = sectionSource(p, chunks...)
	}
	// Sections were checked on arrival, so walking them cannot fail.
	_ = mergeSources(srcs, func(s *mergeSource) error {
		fn(s.key, s.val)
		return nil
	})
}

// Lookup returns key's value: the key hashes to its partition as it did
// on the workers, a binary search over the chunks' last keys finds the
// one chunk that can hold it, and a second one finds it there.
func (r *Result) Lookup(key string) (float64, bool) {
	r.indexOnce.Do(r.buildIndex)
	p := partitionIndex(key, len(r.parts))
	chunks, offs := r.parts[p], r.index[p]
	var rd frameReader
	keyAt := func(c, i int) string {
		rd = frameReader{s: string(chunks[c]), off: int(offs[c][i])}
		k, _ := rd.string() // checked on arrival
		return k
	}
	// An empty chunk is a whole, empty partition: admit takes no other.
	c := sort.Search(len(chunks), func(c int) bool {
		n := len(offs[c])
		return n == 0 || keyAt(c, n-1) >= key
	})
	if c == len(chunks) {
		return 0, false
	}
	i := sort.Search(len(offs[c]), func(i int) bool { return keyAt(c, i) >= key })
	if i == len(offs[c]) || keyAt(c, i) != key {
		return 0, false
	}
	return math.Float64frombits(u64at(rd.s, rd.off)), true // keyAt left the cursor on the value
}

// buildIndex records where each pair of each chunk starts (a chunk is at
// most maxFrameBytes long, so an offset fits an int32).
func (r *Result) buildIndex() {
	r.index = make([][][]int32, len(r.parts))
	for p, chunks := range r.parts {
		r.index[p] = make([][]int32, len(chunks))
		for i, s := range chunks {
			c := s.cursor()
			offs := make([]int32, 0, c.left)
			for c.left > 0 {
				offs = append(offs, int32(c.r.off))
				c.next()
			}
			r.index[p][i] = offs
		}
	}
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
	pairs  float64     // projected output pairs of the partitions heard from ...
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
		// A whole partition counts itself; a first chunk scales its pairs
		// by the bytes its reducer projects. A job may well emit more keys
		// than it reads records, but the cap keeps a bogus projection from
		// costing more than the input does.
		n := float64(chunk.count())
		if !last && len(chunk) > 0 {
			n = max(n, float64(projected)/float64(len(chunk))*n)
		}
		o.pairs += min(n, o.limit)
		o.heard++
	}
	select {
	case o.wake <- struct{}{}:
	default:
	}
	return nil
}

// union builds Run's map from the chunks as they are taken, on its own
// goroutine, so only the chunks that land last are left for the merge
// window. The map is presized once, from the projections of the
// partitions heard from scaled to all of them. It returns when every
// partition has ended, or nil when quit closes first.
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
			out = make(map[string]float64, int(min(o.pairs*float64(len(o.chunks))/float64(o.heard), o.limit)))
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
