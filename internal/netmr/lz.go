package netmr

import (
	"fmt"
	"math"
	"sync"
)

// Dependency-free LZ77 block codec for frame compression, in the LZ4
// block format shape: a stream of sequences, each a token byte (literal
// length in the high nibble, match length − 4 in the low nibble, 15
// meaning "extended by 255-run bytes"), the literals, a 2-byte
// little-endian match offset, and the match-length extension. The final
// sequence is literals only. Intermediate partials are sorted key/value
// pair lists with heavy prefix sharing, so even this greedy matcher
// routinely halves fetchresult frames; the point is shuffle bytes off
// the wire without a cgo or module dependency.

const (
	// lzMinMatch is the shortest match worth encoding (token semantics:
	// low nibble stores matchLen − lzMinMatch).
	lzMinMatch = 4
	// lzMaxOffset bounds the back-reference distance to what 2 bytes
	// address.
	lzMaxOffset = 65535
	// lzHashLog sizes the match table: 1<<lzHashLog heads.
	lzHashLog = 14
	// lzTailLiterals: the last bytes of the input are always emitted as
	// literals (matching LZ4's end-of-block rule), which keeps the
	// decompressor's copy loops simple and safe.
	lzTailLiterals = 12

	// lzCompressThreshold is the smallest input worth attempting to
	// compress: about one initial TCP congestion window (10 × 1460 B).
	// Below it a stored body leaves in one flight on any link, so
	// compressing and decompressing it saves no round trip and costs
	// more CPU than the wire time it sheds at 1 Gb/s and up.
	lzCompressThreshold = 16 << 10
	// lzProbeBytes is the prefix lzPack judges an input of twice that or
	// more by before committing to a full pass: with lzCompressThreshold
	// at two probes, every input it may compress.
	lzProbeBytes = 8 << 10
	// lzMinSaving is the share (one part in) a compressed form must shed
	// to be kept: less does not pay for decompressing it.
	lzMinSaving = 8
)

// lzHash maps a 4-byte sequence to a table slot.
func lzHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lzHashLog)
}

func lzLoad32(src []byte, i int) uint32 {
	return uint32(src[i]) | uint32(src[i+1])<<8 | uint32(src[i+2])<<16 | uint32(src[i+3])<<24
}

// lzTable is the matcher's hash table, pooled and never cleared between
// inputs: a head is stored as base + position + 1 and base moves past
// every head an input stored, so an earlier input's read as empty and a
// small input does not pay to zero 64 KiB.
type lzTable struct {
	heads [1 << lzHashLog]uint32
	base  uint32
}

var lzTables = sync.Pool{New: func() any { return new(lzTable) }}

// lzCompress appends a compressed copy of src to dst and returns the
// result. The output decompresses to exactly src via lzDecompress; it is
// not guaranteed to be shorter than src (callers compare and keep the
// raw bytes when compression does not pay).
func lzCompress(dst, src []byte) []byte {
	t := lzTables.Get().(*lzTable)
	if uint64(t.base)+uint64(len(src)) >= math.MaxUint32 {
		*t = lzTable{}
	}
	base := t.base
	t.base += uint32(len(src))
	defer lzTables.Put(t)
	anchor := 0 // start of pending literals
	si := 0
	limit := len(src) - lzTailLiterals

	emit := func(litEnd, matchLen, offset int) {
		litLen := litEnd - anchor
		token := 0
		if litLen >= 15 {
			token = 15 << 4
		} else {
			token = litLen << 4
		}
		ml := 0
		if matchLen > 0 {
			ml = matchLen - lzMinMatch
			if ml >= 15 {
				token |= 15
			} else {
				token |= ml
			}
		}
		dst = append(dst, byte(token))
		if litLen >= 15 {
			for n := litLen - 15; ; n -= 255 {
				if n >= 255 {
					dst = append(dst, 255)
					continue
				}
				dst = append(dst, byte(n))
				break
			}
		}
		dst = append(dst, src[anchor:litEnd]...)
		if matchLen == 0 {
			return // final literal-only sequence
		}
		dst = append(dst, byte(offset), byte(offset>>8))
		if ml >= 15 {
			for n := ml - 15; ; n -= 255 {
				if n >= 255 {
					dst = append(dst, 255)
					continue
				}
				dst = append(dst, byte(n))
				break
			}
		}
	}

	for si < limit {
		v := lzLoad32(src, si)
		h := lzHash(v)
		cand := int(t.heads[h]) - int(base) - 1 // negative: empty, or an earlier input's
		t.heads[h] = base + uint32(si) + 1
		if cand < 0 || si-cand > lzMaxOffset || lzLoad32(src, cand) != v {
			// LZ4's stride over what does not compress: it widens with the
			// literal run until a match resets it.
			si += 1 + (si-anchor)>>6
			continue
		}
		// Extend the match forward; never into the literal tail.
		matchLen := lzMinMatch
		maxLen := len(src) - lzTailLiterals + (lzTailLiterals - 5) - si // keep 5 literal bytes minimum
		if maxLen > len(src)-si {
			maxLen = len(src) - si
		}
		for matchLen < maxLen && src[cand+matchLen] == src[si+matchLen] {
			matchLen++
		}
		emit(si, matchLen, si-cand)
		si += matchLen
		anchor = si
	}
	emit(len(src), 0, 0)
	return dst
}

// lzPack is the one "is compression worth it" policy frames, spill-file
// sections and spill-run blocks share. It appends raw's compressed form
// to dst and reports true only when that sheds at least 1/lzMinSaving of
// raw's bytes; an input of at least two lzProbeBytes is judged on that
// prefix first, so bulk that does not compress (TeraSort records) costs
// one 8 KiB attempt, not a pass over all of it. On false dst comes back
// with its length unchanged.
func lzPack(dst, raw []byte) ([]byte, bool) {
	dst, ok := lzProbe(dst, len(raw), raw)
	if ok {
		dst, ok = lzPackWhole(dst, raw)
	}
	return dst, ok
}

// lzProbe is lzPack's judgement, before its full pass, of an input of n
// bytes that starts with head, of which it reads the first lzProbeBytes;
// dst keeps its length. An input in pieces gathers only that head.
func lzProbe(dst []byte, n int, head []byte) ([]byte, bool) {
	if n < lzCompressThreshold || n < 2*lzProbeBytes {
		return dst, n >= lzCompressThreshold
	}
	probe, ok := lzPackWhole(dst, head[:lzProbeBytes])
	return probe[:len(dst)], ok
}

// lzPackWhole appends raw compressed to dst, kept only when it sheds at
// least 1/lzMinSaving of raw's bytes.
func lzPackWhole(dst, raw []byte) ([]byte, bool) {
	mark := len(dst)
	out := lzCompress(dst, raw)
	if len(out)-mark > len(raw)-len(raw)/lzMinSaving {
		return out[:mark], false
	}
	return out, true
}

// lzDecompress appends the decompressed form of src to dst and returns
// it, strictly bounds-checked: a malformed or truncated block — or one
// that would expand past max bytes — errors instead of reading or
// writing out of range. dst should be empty (its existing bytes are not
// part of the window).
func lzDecompress(dst, src []byte, max int) ([]byte, error) {
	base := len(dst)
	si := 0
	readLen := func(n int) (int, error) {
		if n != 15 {
			return n, nil
		}
		for {
			if si >= len(src) {
				return 0, fmt.Errorf("netmr: lz: truncated length run at byte %d", si)
			}
			b := src[si]
			si++
			n += int(b)
			if n < 0 {
				return 0, fmt.Errorf("netmr: lz: length overflow at byte %d", si)
			}
			if b != 255 {
				return n, nil
			}
		}
	}
	for si < len(src) {
		token := src[si]
		si++
		litLen, err := readLen(int(token >> 4))
		if err != nil {
			return nil, err
		}
		if litLen > len(src)-si {
			return nil, fmt.Errorf("netmr: lz: %d literals overrun input at byte %d", litLen, si)
		}
		if len(dst)-base+litLen > max {
			return nil, fmt.Errorf("netmr: lz: output exceeds the declared %d bytes", max)
		}
		dst = append(dst, src[si:si+litLen]...)
		si += litLen
		if si == len(src) {
			return dst, nil // final sequence carries no match
		}
		if len(src)-si < 2 {
			return nil, fmt.Errorf("netmr: lz: truncated offset at byte %d", si)
		}
		offset := int(src[si]) | int(src[si+1])<<8
		si += 2
		if offset == 0 || offset > len(dst)-base {
			return nil, fmt.Errorf("netmr: lz: offset %d outside the %d-byte window", offset, len(dst)-base)
		}
		matchLen, err := readLen(int(token & 0x0f))
		if err != nil {
			return nil, err
		}
		matchLen += lzMinMatch
		if len(dst)-base+matchLen > max {
			return nil, fmt.Errorf("netmr: lz: output exceeds the declared %d bytes", max)
		}
		// Byte-at-a-time copy: overlapping matches (offset < matchLen)
		// must re-read bytes this very copy produced.
		from := len(dst) - offset
		for i := 0; i < matchLen; i++ {
			dst = append(dst, dst[from+i])
		}
	}
	return nil, fmt.Errorf("netmr: lz: input ended inside a sequence")
}
