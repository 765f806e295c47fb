package netmr

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"unsafe"
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
// by encodeSection or sectionBuilder or accepted by frameReader.section,
// so walking one cannot fail.
type section string

// sectionBuilder accumulates pairs, which the caller (a reducer's merge)
// appends in ascending key order, and seals them into a section. The
// count prefix is only known at the end, so the body grows behind
// reserved headroom and the prefix is written backwards into it.
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

// section seals the pairs added so far. The section is the builder's own
// buffer, not a copy (a reduce partition is tens of megabytes), so the
// builder must not be written again while the section is in use.
func (b *sectionBuilder) section() section {
	if b.count == 0 {
		return ""
	}
	var prefix [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(prefix[:], uint64(b.count))
	start := binary.MaxVarintLen64 - n
	copy(b.buf[start:], prefix[:n])
	return section(unsafe.String(&b.buf[start], len(b.buf)-start))
}

// keyPrefix is k's first 8 bytes as a big-endian integer, zero-padded:
// where two keys' prefixes differ the keys order the way the prefixes do
// (a short key pads with the smallest byte), so sorts, merges and order
// checks compare one word and touch key bytes only on a tie.
func keyPrefix(k string) uint64 {
	if len(k) >= 8 {
		return bits.ReverseBytes64(u64at(k, 0))
	}
	if n := len(k); n >= 4 {
		hi, lo := k[:4], k[n-4:] // two overlapping 4-byte loads
		return uint64(be32(hi))<<32 | uint64(be32(lo))<<(8*(8-n))
	}
	var p uint64
	for i := 0; i < len(k); i++ {
		p |= uint64(k[i]) << (56 - 8*i)
	}
	return p
}

func be32(s string) uint32 {
	return uint32(s[3]) | uint32(s[2])<<8 | uint32(s[1])<<16 | uint32(s[0])<<24
}

// keyRef is one entry of the sort that orders a section: the index of a
// pair and, filled in by sortRefs, a prefix of its key.
type keyRef struct {
	prefix uint64
	id     uint32
}

// radixMin is the window size below which a comparison sort beats the
// radix passes' fixed cost (≈ 1 µs a pass to clear and sum 256 counters).
const radixMin = 128

// sortRefs orders refs by keys[id], with tmp (as long as refs) as second
// buffer. The keys agree on their first off bytes, zero-padded, so each
// prefix is taken at byte off. A window of radixMin entries or more gets a
// stable byte-wise radix sort on the prefix, least significant byte first,
// bytes the whole window agrees on skipped; each run of equal prefix is
// then sorted the same way on its keys' next 8 bytes (URLs tie for several
// rounds, TeraSort keys hardly ever). Key bytes are compared only in small
// windows, and once no key has bytes left to take.
func sortRefs(refs, tmp []keyRef, keys []string, off int) {
	diff, more := uint64(0), false
	for i := range refs {
		k := keys[refs[i].id]
		k = k[min(off, len(k)):]
		refs[i].prefix = keyPrefix(k)
		diff |= refs[i].prefix ^ refs[0].prefix
		more = more || k != ""
	}
	n := len(refs)
	if n < radixMin || !more {
		slices.SortFunc(refs, func(x, y keyRef) int {
			if x.prefix != y.prefix {
				return cmp.Compare(x.prefix, y.prefix)
			}
			return strings.Compare(keys[x.id], keys[y.id])
		})
		return
	}
	src, dst := refs, tmp
	for shift := 0; shift < 64; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue
		}
		var next [256]uint32 // per byte value: where its next entry goes
		for _, r := range src {
			next[byte(r.prefix>>shift)]++
		}
		sum := uint32(0)
		for d, c := range next {
			next[d], sum = sum, sum+c
		}
		for _, r := range src {
			d := byte(r.prefix >> shift)
			dst[next[d]] = r
			next[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &refs[0] {
		copy(refs, src)
	}
	for lo, hi := 0, 0; lo < n; lo = hi {
		for hi = lo + 1; hi < n && refs[hi].prefix == refs[lo].prefix; hi++ {
		}
		if hi-lo > 1 {
			sortRefs(refs[lo:hi], tmp[lo:hi], keys, off+8)
		}
	}
}

// encodeSection writes the pairs refs names, in refs' order (ascending
// keys), as a section, into one buffer of the section's exact size.
func encodeSection(refs []keyRef, keys []string, vals []float64) section {
	if len(refs) == 0 {
		return ""
	}
	var num [binary.MaxVarintLen64]byte
	size := binary.PutUvarint(num[:], uint64(len(refs)))
	for _, r := range refs {
		size += binary.PutUvarint(num[:], uint64(len(keys[r.id]))) + len(keys[r.id]) + 8
	}
	var b strings.Builder
	b.Grow(size)
	b.Write(num[:binary.PutUvarint(num[:], uint64(len(refs)))])
	for _, r := range refs {
		k := keys[r.id]
		b.Write(num[:binary.PutUvarint(num[:], uint64(len(k)))])
		b.WriteString(k)
		binary.LittleEndian.PutUint64(num[:], math.Float64bits(vals[r.id]))
		b.Write(num[:8])
	}
	return section(b.String())
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
	prev, prevPrefix := "", uint64(0)
	for i := uint64(0); i < n; i++ {
		k, err := r.string()
		if err != nil {
			return "", err
		}
		if len(r.s)-r.off < 8 {
			return "", fmt.Errorf("netmr: truncated section value at byte %d", r.off)
		}
		prefix := keyPrefix(k)
		if i > 0 && (prefix < prevPrefix || prefix == prevPrefix && k <= prev) {
			return "", fmt.Errorf("netmr: section keys out of order at byte %d", r.off)
		}
		prev, prevPrefix = k, prefix
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

// bounds is the first and the last key, "" for the empty section.
func (s section) bounds() (first, last string) {
	c := s.cursor()
	first, _, _ = c.next()
	for last = first; c.left > 0; {
		last, _, _ = c.next()
	}
	return first, last
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

// partitionPartial is one slice of map output: on a mapdone or replicate
// frame the keys of one map task that hash to partition ID; on a
// reducetask, morelocs or fetchresult frame the keys map task ID
// contributed to the partition being reduced. Empty slices are omitted
// from a map task's own set and kept (as held-but-empty markers) on the
// reduce side's frames.
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
