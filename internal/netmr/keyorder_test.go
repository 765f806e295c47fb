package netmr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// sectionKeys walks a section's keys in the order it holds them.
func sectionKeys(sec section) []string {
	var keys []string
	sec.each(func(k string, _ float64) { keys = append(keys, k) })
	return keys
}

// checkSectionOrder builds a section of keys (distinct) both ways the
// package does — sectionFromMap, and one map task through
// runShardPartitioned — and requires the keys in slices.Sort order and a
// section the decoder's order check accepts.
func checkSectionOrder(t *testing.T, keys []string) {
	t.Helper()
	want := slices.Clone(keys)
	slices.Sort(want)
	m := make(map[string]float64, len(keys))
	for i, k := range keys {
		m[k] = float64(i)
	}
	sec := sectionFromMap(m)
	if got := sectionKeys(sec); !slices.Equal(got, want) {
		t.Fatalf("sectionFromMap order differs from slices.Sort:\n got %q\nwant %q", got, want)
	}
	if len(sec) > 0 {
		r := frameReader{s: string(sec)}
		if back, err := r.section(); err != nil || back != sec {
			t.Fatalf("the decoder refuses the builder's section: %v", err)
		}
	}
	identity := Job{Name: "id", Map: func(r string, emit func(string, float64)) { emit(r, 1) },
		Reduce: func(_ string, vs []float64) float64 { return vs[0] }}
	parts := runShardPartitioned(identity, keys, new(shardScratch), 1, nil)
	if got := sectionKeys(partOf(parts, 0)); !slices.Equal(got, want) {
		t.Fatalf("runShardPartitioned order differs from slices.Sort:\n got %q\nwant %q", got, want)
	}
}

// orderEdgeKeys are the keys the prefix can get wrong: the empty key,
// keys shorter than the prefix, keys that differ from a neighbour only by
// trailing zero bytes (equal zero-padded prefixes), the extreme bytes,
// and keys that differ only after byte 8 or only in length.
var orderEdgeKeys = []string{
	"", "\x00", "\x00\x00", "a", "a\x00", "a\x00\x00", "a\x00b", "ab", "b",
	"\xff", "\xff\x00", "\xff\xff", "\x00\xff", "\xfe\xff\xff\xff\xff\xff\xff\xff\xff",
	"1234567", "12345678", "12345678\x00", "123456789", "12345678a", "12345678b",
	"1234567\x00", "1234567\x00\x00", "1234567\x00a",
	"prefix--tail-a", "prefix--tail-b", "prefix--tail-", "prefix--tail-a\x00",
	"prefix--" + strings.Repeat("x", 300) + "1", "prefix--" + strings.Repeat("x", 300) + "0",
}

// TestSectionOrderEdges: the edge keys alone (a window below radixMin:
// the comparison sort on prefix then key) and inside a window large
// enough for the radix passes.
func TestSectionOrderEdges(t *testing.T) {
	checkSectionOrder(t, nil)
	checkSectionOrder(t, []string{""})
	checkSectionOrder(t, orderEdgeKeys)
	keys := slices.Clone(orderEdgeKeys)
	for i := 0; len(keys) < 4*radixMin; i++ {
		keys = append(keys, fmt.Sprintf("filler-%03d", i))
	}
	checkSectionOrder(t, keys)
}

// TestSectionOrderProperty: random key sets over the shapes that steer
// the sort — all-distinct prefixes, one prefix shared by the whole window
// (the sort moves on to the next 8 bytes, repeatedly), a few long runs of
// equal prefix among distinct ones, keys that end inside the shared
// stretch, and runs of keys made of zero bytes only, where every prefix at
// every offset is equal and only the length orders.
func TestSectionOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	random := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return string(b)
	}
	for trial := 0; trial < 200; trial++ {
		n := []int{1, 2, radixMin - 1, radixMin, 3 * radixMin, 1500}[rng.Intn(6)]
		shared := []string{"", "user:0000", "http://example.org/a/b/c/", strings.Repeat("\x00", 19), random(8)}[rng.Intn(5)]
		seen := map[string]bool{}
		var keys []string
		for len(keys) < n {
			var k string
			switch rng.Intn(6) {
			case 0:
				k = shared + random(rng.Intn(12))
			case 1:
				k = shared + fmt.Sprintf("%06d", rng.Intn(2*n))
			case 2:
				k = shared[:rng.Intn(len(shared)+1)]
			case 3:
				k = shared + strings.Repeat("\x00", rng.Intn(2*n))
			case 4:
				k = random(rng.Intn(4)) // few distinct short keys
			default:
				k = shared + []string{"alpha---", "beta----"}[rng.Intn(2)] + random(1+rng.Intn(3))
			}
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		checkSectionOrder(t, keys)
	}
}

// FuzzSectionOrder cuts the input into keys at sep and checks the
// builder's order against slices.Sort. The seeds committed under
// testdata/fuzz hold windows on both sides of radixMin (numbered users
// behind "user:0000", URLs, runs of zero bytes).
func FuzzSectionOrder(f *testing.F) {
	f.Add([]byte(strings.Join(orderEdgeKeys, ",")), byte(','))
	f.Add([]byte("a\x00\x00a\x00a"), byte(0))
	f.Fuzz(func(t *testing.T, data []byte, sep byte) {
		seen := map[string]bool{}
		var keys []string
		for _, p := range bytes.Split(data, []byte{sep}) {
			if k := string(p); !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		checkSectionOrder(t, keys)
	})
}

// TestLoserTreeOrderUnderSharedPrefix: when every head ties on its
// prefix the merge still yields (key, ascending map task) — keys that
// differ only after byte 8, only in length, or not at all across sources.
func TestLoserTreeOrderUnderSharedPrefix(t *testing.T) {
	keys := []string{"prefix--", "prefix--\x00", "prefix--a", "prefix--a\x00", "prefix--ab", "prefix--b"}
	var srcs []*mergeSource
	type rec struct {
		key  string
		task int
	}
	var want []rec
	for task := 0; task < 7; task++ {
		m := map[string]float64{}
		for i, k := range keys {
			if (task+i)%3 != 0 {
				m[k] = float64(task)
				want = append(want, rec{k, task})
			}
		}
		srcs = append(srcs, sectionSource(task, sectionFromMap(m)))
	}
	slices.SortFunc(want, func(x, y rec) int {
		if c := strings.Compare(x.key, y.key); c != 0 {
			return c
		}
		return x.task - y.task
	})
	// Sources listed in descending task order: the tree, not the slice
	// order, must produce ascending tasks.
	slices.Reverse(srcs)
	var got []rec
	if err := mergeSources(srcs, func(s *mergeSource) error {
		if s.val != float64(s.task) {
			t.Errorf("%q from task %d carries value %v", s.key, s.task, s.val)
		}
		got = append(got, rec{s.key, s.task})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("merge order\n got %v\nwant %v", got, want)
	}
}

// TestSectionCheckPastPrefix: the decoder's ascending-keys check compares
// prefixes first and must still refuse equal and descending neighbours
// whose prefixes tie — the TestMalformedReduceResultRefused shapes moved
// behind byte 8 and into the zero padding — and accept the ascending ones.
func TestSectionCheckPastPrefix(t *testing.T) {
	encode := func(keys ...string) string {
		b := binary.AppendUvarint(nil, uint64(len(keys)))
		for _, k := range keys {
			b = binary.LittleEndian.AppendUint64(appendString(b, k), math.Float64bits(1))
		}
		return string(b)
	}
	for _, tc := range []struct {
		name string
		keys []string
		ok   bool
	}{
		{"ascending-after-8", []string{"prefix--a", "prefix--b"}, true},
		{"unsorted-after-8", []string{"prefix--b", "prefix--a"}, false},
		{"duplicate-after-8", []string{"prefix--a", "prefix--a"}, false},
		{"longer-then-shorter", []string{"prefix--a", "prefix--"}, false},
		{"shorter-then-longer", []string{"prefix--", "prefix--a"}, true},
		{"zero-pad-ascending", []string{"a", "a\x00", "a\x00\x00"}, true},
		{"zero-pad-descending", []string{"a\x00", "a"}, false},
		{"zero-pad-duplicate", []string{"a\x00", "a\x00"}, false},
		{"empty-then-zero", []string{"", "\x00"}, true},
		{"zero-then-empty", []string{"\x00", ""}, false},
		{"prefix-descending", []string{"b", "a-------tail"}, false},
		{"high-bytes", []string{"\x7f", "\x80", "\xff", "\xff\x00"}, true},
	} {
		r := frameReader{s: encode(tc.keys...)}
		sec, err := r.section()
		if tc.ok && (err != nil || string(sec) != r.s) {
			t.Errorf("%s: refused ascending keys %q: %v", tc.name, tc.keys, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: accepted keys %q", tc.name, tc.keys)
		}
	}
}
