package netmr

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
)

// section is the one form map output takes between the map task and the
// reducer's merge: a run of key/value pairs sorted by key,
//
//	uvarint(count) ‖ (uvarint(len) key float64le)*
//
// which is byte for byte the wire encoding of one Parts entry's pairs
// and the on-disk layout of one spill-file section. A map task sorts
// and encodes its output once; replication, the store, spill files,
// fetch replies and the reducer's merge then move or walk these bytes
// without ever rebuilding a map. The empty string is the empty section
// (it travels as the single count byte 0). A section is only ever built
// by sectionBuilder or accepted by frameReader.section, so walking one
// cannot fail.
type section string

// sectionBuilder accumulates pairs, which the caller appends in
// ascending key order, and seals them into a section. The count prefix
// is only known at the end, so the body grows behind reserved headroom
// and the prefix is written backwards into it.
type sectionBuilder struct {
	buf   []byte
	count int
}

// reset empties the builder with room for size bytes of pairs, so a
// caller that knows a bound on its output pays for one allocation
// instead of a growth copy at every doubling.
func (b *sectionBuilder) reset(size int) {
	if need := max(binary.MaxVarintLen64+size, 4096); cap(b.buf) < need {
		b.buf = make([]byte, binary.MaxVarintLen64, need)
	}
	b.buf, b.count = b.buf[:binary.MaxVarintLen64], 0
}

func (b *sectionBuilder) add(k string, v float64) {
	b.buf = appendString(b.buf, k)
	b.buf = binary.LittleEndian.AppendUint64(b.buf, math.Float64bits(v))
	b.count++
}

// bytes returns the sealed section in wire form (the count byte 0 when
// no pair was added), valid until the next reset.
func (b *sectionBuilder) bytes() []byte {
	var prefix [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(prefix[:], uint64(b.count))
	start := binary.MaxVarintLen64 - n
	copy(b.buf[start:], prefix[:n])
	return b.buf[start:]
}

// sectionPair is one entry of the sort a map task (or sectionFromMap)
// runs before encoding.
type sectionPair struct {
	key string
	val float64
}

// build sorts pairs by key and encodes them through b.
func (b *sectionBuilder) build(pairs []sectionPair) section {
	if len(pairs) == 0 {
		return ""
	}
	slices.SortFunc(pairs, func(x, y sectionPair) int { return strings.Compare(x.key, y.key) })
	b.reset(0)
	for _, p := range pairs {
		b.add(p.key, p.val)
	}
	return section(b.bytes())
}

// sectionFromMap encodes m: the master's relay and recovery copies of
// flat results, and tests.
func sectionFromMap(m map[string]float64) section {
	pairs := make([]sectionPair, 0, len(m))
	for k, v := range m {
		pairs = append(pairs, sectionPair{k, v})
	}
	var b sectionBuilder
	return b.build(pairs)
}

// section checks the section starting at the cursor — every key inside
// the frame, keys strictly ascending, the count matched — and returns it
// as a substring of the frame, leaving the cursor behind it.
func (r *frameReader) section() (section, error) {
	start := r.off
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.s)-r.off)/9 { // key length byte + 8 value bytes minimum
		return "", fmt.Errorf("netmr: section of %d pairs overruns frame", n)
	}
	if n == 0 {
		return "", nil
	}
	prev := ""
	for i := uint64(0); i < n; i++ {
		k, err := r.string()
		if err != nil {
			return "", err
		}
		if len(r.s)-r.off < 8 {
			return "", fmt.Errorf("netmr: truncated section value at byte %d", r.off)
		}
		if i > 0 && k <= prev {
			return "", fmt.Errorf("netmr: section keys out of order at byte %d", r.off)
		}
		prev = k
		r.off += 8
	}
	return section(r.s[start:r.off]), nil
}

// sectionCursor walks a section's pairs in key order.
type sectionCursor struct {
	r    frameReader
	left uint64
}

func (s section) cursor() sectionCursor {
	c := sectionCursor{r: frameReader{s: string(s)}}
	if len(s) > 0 {
		c.left, _ = c.r.uvarint()
	}
	return c
}

func (c *sectionCursor) next() (k string, v float64, ok bool) {
	if c.left == 0 {
		return "", 0, false
	}
	c.left--
	k, _ = c.r.string() // checked when the section was accepted
	v = math.Float64frombits(u64at(c.r.s, c.r.off))
	c.r.off += 8
	return k, v, true
}

// count is the number of pairs.
func (s section) count() int { return int(s.cursor().left) }

// each calls fn on every pair in key order.
func (s section) each(fn func(k string, v float64)) {
	for c := s.cursor(); ; {
		k, v, ok := c.next()
		if !ok {
			return
		}
		fn(k, v)
	}
}

// addTo copies the pairs into m (keys of disjoint sections: plain set).
func (s section) addTo(m map[string]float64) {
	s.each(func(k string, v float64) { m[k] = v })
}

// toMap decodes the section (nil when empty): what JSON peers exchange,
// the serial-merge fallback, and tests.
func (s section) toMap() map[string]float64 {
	if len(s) == 0 {
		return nil
	}
	m := make(map[string]float64, s.count())
	s.addTo(m)
	return m
}

// partitionPartial is one slice of map output: on a presult, mapdone or
// replicate frame the keys of one map task that hash to partition ID; on
// a reducetask, morelocs or fetchresult frame the keys map task ID
// contributed to the partition being reduced. Empty slices are omitted
// from presult lists and kept (as held-but-empty markers) elsewhere.
type partitionPartial struct {
	ID      int
	Partial section
}

// partOf picks the entry with the given id out of a partition set or a
// per-task list (empty when absent).
func partOf(parts []partitionPartial, id int) section {
	for _, p := range parts {
		if p.ID == id {
			return p.Partial
		}
	}
	return ""
}

// partitionPartialJSON is the shape legacy JSON peers exchange.
type partitionPartialJSON struct {
	ID      int                `json:"id"`
	Partial map[string]float64 `json:"partial,omitempty"`
}

func (p partitionPartial) MarshalJSON() ([]byte, error) {
	return json.Marshal(partitionPartialJSON{ID: p.ID, Partial: p.Partial.toMap()})
}

func (p *partitionPartial) UnmarshalJSON(b []byte) error {
	var j partitionPartialJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	p.ID, p.Partial = j.ID, sectionFromMap(j.Partial)
	return nil
}
