package netmr

import (
	"math"
	"slices"
	"sort"
	"sync"
)

// Result is a job's output. After a distributed reduce it is the R
// partitions exactly as the reducers sent them — hash-disjoint,
// key-sorted sections, no map built at the master — and after a
// master-side merge the map that merge produced. Either way the methods
// read it in place; only Map pays for a map of the whole output. A Result
// is immutable and safe for concurrent use.
type Result struct {
	parts []section          // reduce partitions, indexed by partitionIndex(key, len(parts))
	flat  map[string]float64 // set instead of parts on the master-merge paths

	indexOnce sync.Once
	index     [][]int32 // per partition: byte offset of every pair, built by the first Lookup
}

// Len is the number of keys.
func (r *Result) Len() int {
	if r.parts == nil {
		return len(r.flat)
	}
	n := 0
	for _, s := range r.parts {
		n += s.count()
	}
	return n
}

// Each calls fn on every pair in ascending key order: the reducer-side
// loser tree over the partitions, which are each sorted already.
func (r *Result) Each(fn func(key string, value float64)) {
	if r.parts == nil {
		keys := make([]string, 0, len(r.flat))
		for k := range r.flat {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			fn(k, r.flat[k])
		}
		return
	}
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
	if r.parts == nil {
		v, ok := r.flat[key]
		return v, ok
	}
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

// Map returns the output as one map, for callers that want the old
// shape. Over partitions it is built on every call, presized from their
// counts; nothing else in the Result shares it.
func (r *Result) Map() map[string]float64 {
	if r.parts == nil {
		return r.flat
	}
	out := make(map[string]float64, r.Len())
	for _, s := range r.parts {
		s.addTo(out)
	}
	return out
}
