package netmr

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ipso/internal/workload"
)

// countingJob emits each record as a key, valued by its emission number
// (1, 2, ... from a counter of its own), and folds a key's values in
// order with a fold that tells orders apart: a value credited to the
// wrong key, or folded out of order, changes the result. combine picks
// the streaming Combine path over the buffered Reduce.
func countingJob(combine bool) Job {
	n := 0.0
	fold := func(acc, v float64) float64 { return acc*0.5 + v }
	j := Job{
		Name: "counting",
		Map:  func(r string, emit func(string, float64)) { n++; emit(r, n) },
		Reduce: func(_ string, vs []float64) float64 {
			acc := vs[0]
			for _, v := range vs[1:] {
				acc = fold(acc, v)
			}
			return acc
		},
	}
	if combine {
		j.Combine = fold
	}
	return j
}

// mapReference is one map task through a Go map: the keys in order of
// first emission, every emission's key id, and the partitions as
// runShardPartitioned must return them.
func mapReference(j Job, records []string, parts int) (keys []string, ids []int, want []partitionPartial) {
	index := map[string]int{}
	var vals [][]float64
	for _, r := range records {
		j.Map(r, func(k string, v float64) {
			id, ok := index[k]
			if !ok {
				id = len(keys)
				index[k] = id
				keys, vals = append(keys, k), append(vals, nil)
			}
			ids = append(ids, id)
			vals[id] = append(vals[id], v)
		})
	}
	byPart := make([]map[string]float64, parts)
	for id, k := range keys {
		p := partitionIndex(k, parts)
		if byPart[p] == nil {
			byPart[p] = map[string]float64{}
		}
		byPart[p][k] = j.Reduce(k, vals[id])
	}
	for p, m := range byPart {
		if m != nil {
			want = append(want, partitionPartial{ID: p, Partial: sectionFromMap(m)})
		}
	}
	return keys, ids, want
}

// checkKeyTable runs records as one shard on sc down both paths and
// requires the key ids and the sections of the Go-map reference.
func checkKeyTable(t *testing.T, sc *shardScratch, records []string) {
	t.Helper()
	const parts = 3
	for _, combine := range []bool{true, false} {
		keys, ids, want := mapReference(countingJob(combine), records, parts)
		got := runShardPartitioned(countingJob(combine), records, sc, parts, nil)
		if !slices.Equal(sc.keys, keys) {
			t.Fatalf("combine=%v: %d ids, want %d: keys by id differ from first-emission order", combine, len(sc.keys), len(keys))
		}
		if !combine && !slices.Equal(sc.logKeys, ids) {
			t.Fatalf("combine=%v: emissions carry other ids than the reference's", combine)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("combine=%v: sections differ from the Go-map reference (%d partitions, want %d)", combine, len(got), len(want))
		}
		for _, k := range keys {
			if id, added := sc.ids.id(k, &sc.keys); added || sc.keys[id] != k {
				t.Fatalf("combine=%v: %q looks up as id %d, added %v", combine, k, id, added)
			}
		}
	}
}

// keyTableEdgeKeys are the keys a prefix-and-length match can confuse:
// the empty key; keys of 1–8 bytes that differ only in length or in a
// trailing zero byte (equal zero-padded prefixes); keys of 9 bytes and
// more that share prefix and length and differ only in the last byte;
// and keys behind the 24-byte shared URL prefix.
func keyTableEdgeKeys() []string {
	keys := slices.Clone(orderEdgeKeys)
	for n := 1; n <= 8; n++ {
		keys = append(keys, strings.Repeat("\x00", n), strings.Repeat("a", n), "a"+strings.Repeat("\x00", n-1))
	}
	for _, n := range []int{9, 16, 17, 100} {
		for _, c := range []byte{0, 1, 'a', 'b', 0xff} {
			keys = append(keys, strings.Repeat("p", n-1)+string(c))
		}
	}
	for i := 0; i < 20; i++ {
		keys = append(keys, fmt.Sprintf("http://example.org/user/%d", i))
	}
	return keys
}

// sameHomeKeys are short keys paired with the same key plus one or two
// zero bytes (equal prefixes) where both land on one home slot of the
// smallest table: only the length tells them apart.
func sameHomeKeys() []string {
	shift := 64 - bits.TrailingZeros(minKeySlots)
	home := func(k string) uint64 { return slotHash(k, keyPrefix(k)) >> shift }
	var keys []string
	for i := 0; len(keys) < 12; i++ {
		k := strconv.Itoa(i)
		for _, z := range []string{"\x00", "\x00\x00"} {
			if home(k) == home(k+z) {
				keys = append(keys, k, k+z)
			}
		}
	}
	return keys
}

// emissions is keys each emitted 1–3 times in a shuffled order.
func emissions(rng *rand.Rand, keys []string) []string {
	var out []string
	for _, k := range keys {
		for r := rng.Intn(3); r >= 0; r-- {
			out = append(out, k)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestKeyTableMatchesMap: the edge keys alone, keys whose prefix and
// home slot agree in a table too small to grow, then among enough filler
// that the table doubles several times inside one shard, then a large
// shard followed by a small one on the same scratch: each result is the
// Go map's, and once a small shard has run, the next reset brings the
// table back to its smallest size.
func TestKeyTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	edges := keyTableEdgeKeys()
	sc := new(shardScratch)
	checkKeyTable(t, sc, nil)
	checkKeyTable(t, sc, []string{""})
	checkKeyTable(t, sc, emissions(rng, edges))
	checkKeyTable(t, new(shardScratch), emissions(rng, sameHomeKeys()))

	big := slices.Clone(edges)
	for i := 0; len(big) < 20_000; i++ {
		big = append(big, fmt.Sprintf("k%d", i), fmt.Sprintf("http://example.org/user/%08d", i))
	}
	fresh := new(shardScratch)
	checkKeyTable(t, fresh, emissions(rng, big))
	if n := len(fresh.keys); len(fresh.ids.slots) <= slotsPerKey*n || len(fresh.ids.slots) > 2*slotsPerKey*n {
		t.Fatalf("%d slots for %d keys", len(fresh.ids.slots), n)
	}
	// checkKeyTable runs the shard twice: the first reset still sizes the
	// table for the large shard, the second for the small one.
	checkKeyTable(t, fresh, emissions(rng, edges[:10]))
	if len(fresh.ids.slots) != minKeySlots {
		t.Fatalf("after a small shard the table holds %d slots, want %d", len(fresh.ids.slots), minKeySlots)
	}
}

// meanProbe is the mean distance of the table's keys from their home
// slots, read off the slot positions.
func meanProbe(tb *keyTable, keys []string) float64 {
	mask, total := len(tb.slots)-1, 0
	for i, s := range tb.slots {
		if s.lenp1 != 0 {
			total += (i - int(slotHash(keys[s.id], s.prefix)>>tb.shift)) & mask
		}
	}
	return float64(total) / float64(tb.n)
}

// TestKeyTableProbeDistance bounds how far keys sit from their home
// slots: 20k keys behind one 24-byte URL prefix, whose first 8 bytes are
// all equal (indexed by prefix and length they would share one home),
// and wc-lowcard's 1000 six-byte words. Linear probing at load < 1/4
// with a uniform hash expects a mean of 0.1 to 0.2.
func TestKeyTableProbeDistance(t *testing.T) {
	shared := make([]string, 20_000)
	for i := range shared {
		shared[i] = fmt.Sprintf("http://example.org/user/%08d", i*7919)
	}
	for name, keys := range map[string][]string{"sharedprefix": shared, "dictionary": workload.Dictionary()} {
		sc := new(shardScratch)
		sc.run(countingJob(true), keys)
		if got := meanProbe(&sc.ids, sc.keys); got > 0.5 {
			t.Errorf("%s: mean probe distance %.3f over %d keys in %d slots, want ≤ 0.5", name, got, sc.ids.n, len(sc.ids.slots))
		}
	}
}

// FuzzKeyTable cuts the input at sep into emissions, repeats kept, and
// checks ids and sections against the Go-map reference on both paths.
// The seeds committed under testdata/fuzz hold the order edge keys twice
// over, runs of zero bytes only, URLs behind a shared prefix, and keys of
// 9 to 40 bytes that differ in their last byte alone.
func FuzzKeyTable(f *testing.F) {
	f.Add([]byte(strings.Repeat(strings.Join(orderEdgeKeys, ",")+",", 2)), byte(','))
	f.Fuzz(func(t *testing.T, data []byte, sep byte) {
		var records []string
		for _, p := range bytes.Split(data, []byte{sep}) {
			records = append(records, string(p))
		}
		checkKeyTable(t, new(shardScratch), records)
	})
}
