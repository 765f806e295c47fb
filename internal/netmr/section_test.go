package netmr

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// mapPart is a Parts entry as a map, the way the reference encoder below
// takes it.
type mapPart struct {
	id int
	m  map[string]float64
}

// mapEncodeBody is the reference frame encoder: it builds the raw
// checksummed body (type byte through CRC) field by field from maps,
// collecting and sorting every map's keys itself. m carries every field
// but Parts and Folded.
func mapEncodeBody(t testing.TB, m message, folded map[string]float64, parts []mapPart) []byte {
	t.Helper()
	pairs := func(b []byte, p map[string]float64) []byte {
		b = binary.AppendUvarint(b, uint64(len(p)))
		keys := make([]string, 0, len(p))
		for k := range p {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b = appendString(b, k)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p[k]))
		}
		return b
	}
	locs := func(b []byte, ls []fetchLoc) []byte {
		b = binary.AppendUvarint(b, uint64(len(ls)))
		for _, loc := range ls {
			b = appendString(b, loc.Addr)
			b = binary.AppendUvarint(b, uint64(len(loc.Tasks)))
			for _, task := range loc.Tasks {
				b = binary.AppendVarint(b, int64(task))
			}
		}
		return b
	}
	b := []byte{frameTypes[m.Type]}
	b = appendString(b, m.ID)
	b = appendString(b, m.Job)
	b = binary.AppendVarint(b, int64(m.TaskID))
	b = binary.AppendVarint(b, int64(m.Attempt))
	b = pairs(b, folded)
	b = appendStrings(b, m.Jobs)
	b = appendString(b, m.Message)
	b = binary.AppendUvarint(b, uint64(len(m.Batch)))
	for _, spec := range m.Batch {
		b = appendString(b, spec.Job)
		b = binary.AppendVarint(b, int64(spec.TaskID))
		b = binary.AppendVarint(b, int64(spec.Attempt))
		b = appendStrings(b, spec.Records)
	}
	b = binary.AppendUvarint(b, uint64(len(parts)))
	for _, part := range parts {
		b = binary.AppendVarint(b, int64(part.id))
		b = pairs(b, part.m)
	}
	b = appendString(b, m.Trace)
	b = binary.AppendUvarint(b, uint64(len(m.Spans)))
	for _, s := range m.Spans {
		b = appendString(b, s.Phase)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Start))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.End))
	}
	b = appendString(b, m.Run)
	b = binary.AppendVarint(b, int64(m.Reducers))
	b = appendString(b, m.Fetch)
	b = binary.AppendVarint(b, m.Bytes)
	b = binary.AppendUvarint(b, uint64(len(m.Tasks)))
	for _, task := range m.Tasks {
		b = binary.AppendVarint(b, int64(task))
	}
	b = locs(b, m.Locs)
	b = appendString(b, m.Rep)
	b = binary.AppendVarint(b, int64(m.Spills))
	b = binary.AppendVarint(b, m.Spilled)
	b = binary.AppendVarint(b, m.ShuffleMs)
	b = binary.AppendVarint(b, int64(m.Total))
	b = locs(b, m.Reps)
	b = binary.AppendVarint(b, int64(m.Failovers))
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

// randomPairs draws n pairs over a key space that collides across calls
// (shared prefixes, the empty key, multi-byte runes) with values that
// include the non-finite ones.
func randomPairs(rng *rand.Rand, n int) map[string]float64 {
	m := make(map[string]float64, n)
	for len(m) < n {
		var k string
		switch rng.Intn(4) {
		case 0:
			k = fmt.Sprintf("key-%d", rng.Intn(4*n+1))
		case 1:
			k = strings.Repeat("p", rng.Intn(200)) + fmt.Sprint(rng.Intn(50))
		case 2:
			k = string([]rune{rune(0x3b1 + rng.Intn(24)), rune('a' + rng.Intn(26))})
		default:
			k = string([]byte{byte(rng.Intn(256)), byte(rng.Intn(256))})
		}
		v := float64(rng.Intn(1000)) - 500
		switch rng.Intn(20) {
		case 0:
			v = math.NaN()
		case 1:
			v = math.Inf(1 - 2*rng.Intn(2))
		}
		m[k] = v
	}
	return m
}

// TestSectionFramesMatchMapEncoder is the encoding property: for every
// frame type that carries Parts or Folded, a frame built from sections is
// byte for byte the frame the reference encoder builds from the same data
// as maps, behind its length prefix.
func TestSectionFramesMatchMapEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 60; trial++ {
		var parts []mapPart
		var secs []partitionPartial
		for p, n := 0, rng.Intn(5); p < n; p++ {
			size := []int{0, 1, 2, 40, 700}[rng.Intn(5)]
			mp := mapPart{id: rng.Intn(9) - 1, m: randomPairs(rng, size)}
			parts = append(parts, mp)
			secs = append(secs, partitionPartial{ID: mp.id, Partial: sectionFromMap(mp.m)})
		}
		partial := randomPairs(rng, []int{0, 1, 300}[rng.Intn(3)])
		var folded sectionBuilder
		folded.reset(0)
		for c := sectionFromMap(partial).cursor(); ; {
			k, v, ok := c.next()
			if !ok {
				break
			}
			folded.add(k, v)
		}
		frames := []message{
			{Type: "mapdone", TaskID: trial, Attempt: 1, Run: "wc#1", Trace: "wc-1", Spans: []spanSummary{{Phase: "map", End: 0.5}}},
			{Type: "mapdone", TaskID: trial, Run: "wc#1", Rep: "127.0.0.1:7002", Spills: 1, Spilled: 99},
			{Type: "replicate", Run: "wc#1", TaskID: trial, Reducers: 8, Parts: secs},
			{Type: "fetchresult", TaskID: 3, Parts: secs},
			{Type: "reducetask", Job: "wc", TaskID: 2, Run: "wc#1", Total: 9,
				Locs: []fetchLoc{{Addr: "127.0.0.1:7001", Tasks: []int{0, 1}}}},
			{Type: "morelocs", Run: "wc#1", TaskID: 2,
				Reps: []fetchLoc{{Addr: "127.0.0.1:7002", Tasks: []int{4}}}},
			{Type: "result", TaskID: 1, Attempt: 2, Folded: sectionFromMap(partial), Bytes: 99, Failovers: 2},
			{Type: "result", TaskID: 1, Attempt: 2, Folded: folded.section(), Bytes: 99, Spills: 1, Spilled: 7},
		}
		for _, m := range frames {
			var refFolded map[string]float64
			if m.Type == "result" {
				refFolded = partial
			}
			refParts := parts
			if m.Parts == nil {
				refParts = nil
			}
			want := mapEncodeBody(t, m, refFolded, refParts)
			if frame := encodeBinary(t, m); string(frame) != string(append(binary.AppendUvarint(nil, uint64(len(want))), want...)) {
				t.Fatalf("trial %d %s: frame differs from the reference encoder's", trial, m.Type)
			}
		}
	}
}

// badSectionBodies are checksummed bodies whose Parts carry a section the
// decoder must refuse: the encoder copies section bytes in as they are, so a
// peer that lies about one is the only way such a frame comes to exist.
func badSectionBodies(t testing.TB) map[string][]byte {
	good := string(sectionFromMap(map[string]float64{"a": 1, "b": 2, "c": 3}))
	pair := func(k string) string {
		return string(binary.LittleEndian.AppendUint64(appendString(nil, k), math.Float64bits(1)))
	}
	bad := map[string]string{
		"over-count":     "\x04" + good[1:],                       // 4 declared, 3 present: runs into the next field
		"under-count":    "\x02" + good[1:],                       // overlong: a pair trails the declared two
		"truncated-key":  good[:len(good)-9],                      // last pair cut after its key length
		"truncated-val":  good[:len(good)-3],                      // last value short
		"key-overrun":    "\x01\x7fa" + strings.Repeat("\x00", 8), // key length points past the frame
		"huge-count":     "\xff\xff\xff\xff\x0f" + good[1:],       // count no frame could hold
		"unsorted":       "\x02" + pair("b") + pair("a"),          // the merge needs ascending keys
		"duplicate-key":  "\x02" + pair("a") + pair("a"),          // strictly ascending
		"count-overflow": strings.Repeat("\xff", 10) + "\x01",     // uvarint past 64 bits
		"noncanonical-0": "\x80\x00",                              // fine: decodes as empty — kept as a positive control
	}
	out := map[string][]byte{}
	for name, sec := range bad {
		m := message{Type: "fetchresult", TaskID: 1, Parts: []partitionPartial{
			{ID: 0, Partial: sectionFromMap(map[string]float64{"ok": 1})},
			{ID: 1, Partial: section(sec)},
		}}
		out[name] = frameBody(t, encodeBinary(t, m))
	}
	return out
}

// sortedBodies orders a name → body table by name, so fuzz seeds keep
// their numbers from run to run.
func sortedBodies(bodies map[string][]byte) [][]byte {
	names := make([]string, 0, len(bodies))
	for name := range bodies {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([][]byte, len(names))
	for i, name := range names {
		out[i] = bodies[name]
	}
	return out
}

// walkSections iterates every section of a decoded message the ways the
// data path does; a section the decoder accepted must never panic here.
func walkSections(m *message) (pairs int) {
	for _, p := range m.Parts {
		n := 0
		for c := p.Partial.cursor(); ; n++ {
			if _, _, ok := c.next(); !ok {
				break
			}
		}
		if n != p.Partial.count() || len(p.Partial.toMap()) != n {
			panic(fmt.Sprintf("section of %d pairs walked as %d", p.Partial.count(), n))
		}
		pairs += n
	}
	return pairs
}

// TestDecodeRejectsBadSections: a section is bounds-checked once, at
// decode — count, key lengths, value bytes, key order — so that nothing
// downstream has to be able to fail.
func TestDecodeRejectsBadSections(t *testing.T) {
	for name, body := range badSectionBodies(t) {
		var m message
		err := decodeFrame(body, &m)
		if name == "noncanonical-0" {
			if err != nil || walkSections(&m) != 1 {
				t.Errorf("%s: err=%v, want a frame with one pair", name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: decoded, want an error (parts %+v)", name, m.Parts)
		}
	}
}

// TestSectionMergeMatchesSerialMerge pins the reducer's merge to the
// serialMerge oracle on the shapes the random sweep may miss: a key
// every task holds, tasks gathered out of order, empty and single-key
// sections, one section alone, nothing at all — Combine on and off, with
// a Reduce that is sensitive to the order its values arrive in.
func TestSectionMergeMatchesSerialMerge(t *testing.T) {
	positional := Job{Name: "positional",
		Map: func(string, func(string, float64)) {},
		Reduce: func(_ string, vs []float64) float64 {
			out := 0.0
			for _, v := range vs {
				out = out*10 + v
			}
			return out
		}}
	folding := positional
	folding.Combine = func(acc, v float64) float64 { return acc*10 + v }

	shared := func(tasks int) []taskMap {
		in := make([]taskMap, tasks)
		for task := range in {
			in[task] = taskMap{task: task, m: map[string]float64{
				"everyone": float64(task%9 + 1), fmt.Sprintf("own-%02d", task): 1, "": 2,
			}}
		}
		return in
	}
	cases := map[string][]taskMap{
		"nothing":     nil,
		"one-empty":   {{task: 0, m: map[string]float64{}}},
		"one-section": {{task: 4, m: map[string]float64{"a": 1, "b": 2}}},
		"single-keys": {{task: 2, m: map[string]float64{"k": 3}}, {task: 0, m: map[string]float64{"k": 1}}, {task: 1, m: map[string]float64{"k": 2}}},
		"with-empties": {{task: 3, m: map[string]float64{}}, {task: 1, m: map[string]float64{"x": 7}},
			{task: 0, m: map[string]float64{}}, {task: 2, m: map[string]float64{"x": 5, "y": 1}}},
		"shared-by-33": shared(33),
	}
	for name, inputs := range cases {
		for jobName, job := range map[string]Job{"reduce": positional, "combine": folding} {
			want := oracleFold(job, inputs)
			reversed := append([]taskMap(nil), inputs...)
			sort.Slice(reversed, func(i, j int) bool { return reversed[i].task > reversed[j].task })
			for _, order := range [][]taskMap{inputs, reversed} {
				for _, budget := range []int64{0, 1, 40} {
					for _, streamEvery := range []int{0, 2} {
						got, _, _ := folderFold(t, job, order, budget, streamEvery)
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s/%s budget=%d stream=%d: merge = %v, serialMerge = %v", name, jobName, budget, streamEvery, got, want)
						}
					}
				}
			}
		}
	}
}
