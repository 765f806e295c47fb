package netmr

import (
	"math"
	"sort"
	"sync"
)

// Result is a job's output: the R partitions exactly as the reducers
// sent them — hash-disjoint, key-sorted sections, no map built at the
// master. The methods read it in place; only Map pays for a map of the
// whole output. A Result is immutable and safe for concurrent use.
type Result struct {
	parts []section // reduce partitions, indexed by partitionIndex(key, len(parts))

	indexOnce sync.Once
	index     [][]int32 // per partition: byte offset of every pair, built by the first Lookup
}

// Len is the number of keys.
func (r *Result) Len() int {
	n := 0
	for _, s := range r.parts {
		n += s.count()
	}
	return n
}

// Each calls fn on every pair in ascending key order: the reducer-side
// loser tree over the partitions, which are each sorted already.
func (r *Result) Each(fn func(key string, value float64)) {
	srcs := make([]*mergeSource, len(r.parts))
	for p, s := range r.parts {
		srcs[p] = sectionSource(p, s)
	}
	// Sections were checked on arrival, so walking them cannot fail.
	_ = mergeSources(srcs, func(s *mergeSource) error {
		fn(s.key, s.val)
		return nil
	})
}

// Lookup returns key's value: the key hashes to its partition as it did
// on the workers, and a binary search finds it there.
func (r *Result) Lookup(key string) (float64, bool) {
	r.indexOnce.Do(r.buildIndex)
	p := partitionIndex(key, len(r.parts))
	offs, rd := r.index[p], frameReader{s: string(r.parts[p])}
	keyAt := func(i int) string {
		rd.off = int(offs[i])
		k, _ := rd.string() // checked on arrival
		return k
	}
	i := sort.Search(len(offs), func(i int) bool { return keyAt(i) >= key })
	if i == len(offs) || keyAt(i) != key {
		return 0, false
	}
	return math.Float64frombits(u64at(rd.s, rd.off)), true // keyAt left the cursor on the value
}

// buildIndex records where each pair of each partition starts (a section
// is at most maxFrameBytes long, so an offset fits an int32).
func (r *Result) buildIndex() {
	r.index = make([][]int32, len(r.parts))
	for p, s := range r.parts {
		c := s.cursor()
		offs := make([]int32, 0, c.left)
		for c.left > 0 {
			offs = append(offs, int32(c.r.off))
			c.next()
		}
		r.index[p] = offs
	}
}

// Map returns the output as one map, for callers that want that shape.
// It is built on every call, presized from the partitions' counts;
// nothing else in the Result shares it.
func (r *Result) Map() map[string]float64 {
	out := make(map[string]float64, r.Len())
	for _, s := range r.parts {
		s.addTo(out)
	}
	return out
}
