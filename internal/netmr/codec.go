package netmr

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"net"
	"slices"
	"sync"
	"unsafe"
)

// The wire format. A connection opens, in each direction, with the
// four-byte preamble of protocol.go; after it every frame is
//
//	uvarint(len(body)) || body
//	body  = type byte || fields... || crc32c(body[:len(body)-4]) (4 B LE)
//
// There is one layout: every field of message is encoded in a fixed
// order (strings as uvarint length + bytes, ints as varints, sections as
// the bytes they are, spans as IEEE-754 pairs) whatever the frame type,
// so any frame round-trips exactly and an unknown type byte still
// decodes, to be ignored downstream. A field a frame type does not use
// costs its one zero byte. The CRC-32C guards the body end to end.
const maxFrameBytes = 1 << 26 // 64 MiB hard cap: larger prefixes are corruption

// frameHeadroom is the space encode leaves in front of a body for
// what goes before it and is only known afterwards — the caller's lead
// bytes (the preamble) and the uvarint length prefix — so the header is
// written backwards into it instead of shifting the body.
const frameHeadroom = len(preamble) + binary.MaxVarintLen64

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameTypes maps message type strings to their wire bytes. 0 is
// reserved so a zeroed buffer never looks like a valid frame; 3 (the
// single-shard task frame, until v5) and 9 (the presult frame v1 had) are
// retired and stay unassigned; 18, the chunk frame, came with v4.
var frameTypes = map[string]byte{
	"hello":       1,
	"helloack":    2,
	"result":      4,
	"error":       5,
	"ping":        6,
	"pong":        7,
	"taskbatch":   8,
	"reducetask":  10,
	"fetch":       11,
	"fetchresult": 12,
	"mapdone":     13,
	"replicate":   14,
	"replicack":   15,
	"morelocs":    16,
	"release":     17,
	"chunk":       18,
}

var frameNames = func() map[byte]string {
	m := make(map[byte]string, len(frameTypes))
	for name, b := range frameTypes {
		m[b] = name
	}
	return m
}()

// encBufPool recycles frame encoders across connections: sends are
// sequential per conn, so the pool keeps at most one warm encoder per P.
var encBufPool = sync.Pool{New: func() any { return &frameEnc{buf: make([]byte, 0, 4096)} }}

// sectionRefBytes is the smallest section a frame sends from where it
// lies instead of copying it into the encode buffer, which the pool then
// keeps: below it the copy costs less than another segment, so control
// frames and small results leave as one buffer.
const sectionRefBytes = 16 << 10

// frameEnc encodes frames for vectored writes: buf holds the header and
// the fields, segs the frame as written (pieces of buf, the one being
// encoded from buf[at:], with the sections sent in place between them),
// out the copy of segs a write consumes.
type frameEnc struct {
	buf       []byte
	segs, out net.Buffers
	at        int
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

// sizeStrings is the length of appendStrings' output.
func sizeStrings(ss []string) int {
	n := binary.MaxVarintLen64
	for _, s := range ss {
		n += (bits.Len(uint(len(s))|1)+6)/7 + len(s)
	}
	return n
}

// frameSizeHint is the encoded size of what a frame of m copies in bulk —
// batch, sections under refMin — plus room for the small fields of an
// ordinary frame, so the encode buffer is allocated once.
func frameSizeHint(m *message, refMin int) int {
	const v = binary.MaxVarintLen64
	n := frameHeadroom + 1024
	if len(m.Folded) < refMin {
		n += len(m.Folded)
	}
	for _, spec := range m.Batch {
		n += len(spec.Job) + 3*v + sizeStrings(spec.Records)
	}
	for _, p := range m.Parts {
		if n += v + 1; len(p.Partial) < refMin {
			n += len(p.Partial)
		}
	}
	return n
}

// section appends sec in wire form (the empty section is the single count
// byte 0) or, at refMin bytes or more, ends the piece of b being encoded
// and sends sec from where it lies: a section is an immutable string, so
// the bytes the checksum reads through this view are the bytes written.
func (e *frameEnc) section(b []byte, sec section, refMin int) []byte {
	if len(sec) == 0 {
		return append(b, 0)
	} else if len(sec) < refMin {
		return append(b, sec...)
	}
	e.segs = append(e.segs, b[e.at:], unsafe.Slice(unsafe.StringData(string(sec)), len(sec)))
	e.at = len(b)
	return b
}

// encode encodes m's wire frame, lead first (a connection's first send
// passes its preamble so both leave in one write), as the segments of one
// vectored write, aliasing e.buf and m's sections until the next encode.
// Fields go into e.buf (reused, or replaced once at frameSizeHint); a
// section of refMin bytes or more is sent from where it lies, so the
// segments concatenated are the contiguous frame (refMin past every
// section) byte for byte.
func (e *frameEnc) encode(m *message, lead []byte, refMin int) (net.Buffers, error) {
	tb, ok := frameTypes[m.Type]
	if !ok {
		return nil, fmt.Errorf("netmr: unencodable frame type %q", m.Type)
	}
	b := e.buf[:0]
	if need := frameSizeHint(m, refMin); cap(b) < need {
		// An eighth over: the pooled buffer then also fits the next frame
		// of about this size instead of being replaced for a few bytes.
		b = make([]byte, 0, need+need/8)
	}
	e.segs, e.at = slices.Grow(e.segs[:0], 2*len(m.Parts)+3), frameHeadroom
	var headroom [frameHeadroom]byte
	b = append(b, headroom[:]...)
	b = append(b, tb)
	b = appendString(b, m.ID)
	b = appendString(b, m.Job)
	b = binary.AppendVarint(b, int64(m.TaskID))
	b = binary.AppendVarint(b, int64(m.Attempt))
	b = e.section(b, m.Folded, refMin)
	b = appendStrings(b, m.Jobs)
	b = appendString(b, m.Message)
	b = binary.AppendUvarint(b, uint64(len(m.Batch)))
	for _, spec := range m.Batch {
		b = appendString(b, spec.Job)
		b = binary.AppendVarint(b, int64(spec.TaskID))
		b = binary.AppendVarint(b, int64(spec.Attempt))
		b = appendStrings(b, spec.Records)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Parts)))
	for _, part := range m.Parts {
		b = binary.AppendVarint(b, int64(part.ID))
		b = e.section(b, part.Partial, refMin)
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
	for _, t := range m.Tasks {
		b = binary.AppendVarint(b, int64(t))
	}
	b = appendLocs(b, m.Locs)
	b = appendString(b, m.Rep)
	b = binary.AppendVarint(b, int64(m.Spills))
	b = binary.AppendVarint(b, m.Spilled)
	b = binary.AppendVarint(b, int64(m.Total))
	b = appendLocs(b, m.Reps)
	b = binary.AppendVarint(b, int64(m.Failovers))

	// The last piece closes with the CRC over every segment, read where each
	// lies (b grows for it first, so it never moves under the pieces).
	b = slices.Grow(b, 4)
	crc, bodyLen := uint32(0), len(b)-e.at+4
	for _, s := range e.segs {
		crc, bodyLen = crc32.Update(crc, crcTable, s), bodyLen+len(s)
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.Update(crc, crcTable, b[e.at:]))
	e.segs = append(e.segs, b[e.at:])

	// The header goes in backwards from the body: the length, the
	// caller's lead.
	e.buf = b
	if bodyLen > maxFrameBytes {
		return nil, fmt.Errorf("netmr: frame of %d bytes exceeds the %d limit", bodyLen, maxFrameBytes)
	}
	var prefix [binary.MaxVarintLen64]byte
	pn := binary.PutUvarint(prefix[:], uint64(bodyLen))
	start := frameHeadroom - pn
	copy(b[start:], prefix[:pn])
	start -= len(lead)
	copy(b[start:], lead)
	e.segs[0] = b[start : frameHeadroom+len(e.segs[0])]
	return e.segs, nil
}

// appendLocs appends a fetchLoc list (Locs and Reps share the shape).
func appendLocs(b []byte, locs []fetchLoc) []byte {
	b = binary.AppendUvarint(b, uint64(len(locs)))
	for _, loc := range locs {
		b = appendString(b, loc.Addr)
		b = binary.AppendUvarint(b, uint64(len(loc.Tasks)))
		for _, t := range loc.Tasks {
			b = binary.AppendVarint(b, int64(t))
		}
	}
	return b
}

// frameReader is the cursor decodeFrame parses with. All strings are
// substrings of the frame's text, so a decoded frame costs no allocation
// for its text beyond the buffer it was received into.
type frameReader struct {
	s   string
	off int
}

// uvarint parses in place (binary.Uvarint would need a []byte copy).
func (r *frameReader) uvarint() (uint64, error) {
	var x uint64
	var shift uint
	for i := r.off; i < len(r.s); i++ {
		b := r.s[i]
		if b < 0x80 {
			if shift >= 63 && b > 1 {
				return 0, fmt.Errorf("netmr: uvarint overflow at byte %d", r.off)
			}
			r.off = i + 1
			return x | uint64(b)<<shift, nil
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
		if shift >= 64 {
			return 0, fmt.Errorf("netmr: uvarint overflow at byte %d", r.off)
		}
	}
	return 0, fmt.Errorf("netmr: truncated uvarint at byte %d", r.off)
}

func (r *frameReader) varint() (int64, error) {
	ux, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	x := int64(ux >> 1) // zigzag decode, as encoding/binary writes them
	if ux&1 != 0 {
		x = ^x
	}
	return x, nil
}

func (r *frameReader) int() (int, error) {
	v, err := r.varint()
	return int(v), err
}

func (r *frameReader) string() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.s)-r.off) {
		return "", fmt.Errorf("netmr: string of %d bytes overruns frame", n)
	}
	s := r.s[r.off : r.off+int(n)]
	r.off += int(n)
	return s, nil
}

// strings decodes a string list, appending into dst (reused between
// frames by the conn when the caller is done with the previous list);
// without a dst an empty list is nil.
func (r *frameReader) strings(dst []string) ([]string, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Each string costs at least its length byte, so a count larger than
	// the remaining bytes is corruption, not a huge allocation.
	if n > uint64(len(r.s)-r.off) {
		return nil, fmt.Errorf("netmr: string list of %d entries overruns frame", n)
	}
	if n == 0 && dst == nil {
		return nil, nil
	}
	if cap(dst) < int(n) {
		dst = make([]string, 0, n)
	}
	dst = dst[:0]
	for i := uint64(0); i < n; i++ {
		s, err := r.string()
		if err != nil {
			return nil, err
		}
		dst = append(dst, s)
	}
	return dst, nil
}

// ints decodes a varint list into a fresh slice (nil when empty).
func (r *frameReader) ints() ([]int, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Each entry costs at least one byte, so a count larger than the
	// remaining bytes is corruption, not a huge allocation.
	if n > uint64(len(r.s)-r.off) {
		return nil, fmt.Errorf("netmr: int list of %d entries overruns frame", n)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]int, n)
	for i := range out {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		out[i] = int(v)
	}
	return out, nil
}

// locs decodes a fetchLoc list into a fresh slice (nil when empty).
func (r *frameReader) locs() ([]fetchLoc, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Each loc costs at least its addr length byte plus a task count byte.
	if n > uint64(len(r.s)-r.off) {
		return nil, fmt.Errorf("netmr: loc list of %d entries overruns frame", n)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]fetchLoc, n)
	for i := range out {
		if out[i].Addr, err = r.string(); err != nil {
			return nil, err
		}
		if out[i].Tasks, err = r.ints(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// decodeFrame parses one checksummed frame body into m, reusing m.Batch's
// backing arrays when the caller passes them back in. All other slice
// fields are freshly allocated (results outlive the next recv on the
// master); sections — Parts and Folded — are checked by one walk each
// (count, bounds, strictly ascending keys) and kept as substrings of the
// frame's text.
//
// The caller gives body up: it becomes the text every string and section
// of m is a substring of, so it must never be written, pooled or reused
// afterwards — recv reads each frame into a buffer of its own for that.
func decodeFrame(body []byte, m *message) error {
	if len(body) < 5 { // type byte + CRC
		return fmt.Errorf("netmr: frame of %d bytes is too short", len(body))
	}
	payload, sum := body[:len(body)-4], binary.LittleEndian.Uint32(body[len(body)-4:])
	if got := crc32.Checksum(payload, crcTable); got != sum {
		return fmt.Errorf("netmr: frame checksum mismatch (got %08x, want %08x)", got, sum)
	}
	batch := m.Batch
	*m = message{}
	// The one unsafe conversion: payload is non-empty (checked above) and,
	// by the ownership rule, immutable from here on.
	r := &frameReader{s: unsafe.String(&payload[0], len(payload))}
	tb := r.s[0]
	r.off = 1
	if name, ok := frameNames[tb]; ok {
		m.Type = name
	} else {
		m.Type = fmt.Sprintf("?%d", tb) // unknown frames are ignored downstream
	}
	var err error
	if m.ID, err = r.string(); err != nil {
		return err
	}
	if m.Job, err = r.string(); err != nil {
		return err
	}
	if m.TaskID, err = r.int(); err != nil {
		return err
	}
	if m.Attempt, err = r.int(); err != nil {
		return err
	}
	if m.Folded, err = r.section(); err != nil {
		return err
	}
	if m.Jobs, err = r.strings(nil); err != nil {
		return err
	}
	if m.Message, err = r.string(); err != nil {
		return err
	}
	nb, err := r.uvarint()
	if err != nil {
		return err
	}
	if nb > uint64(len(r.s)-r.off) {
		return fmt.Errorf("netmr: batch of %d specs overruns frame", nb)
	}
	if nb > 0 {
		if cap(batch) < int(nb) {
			batch = make([]taskSpec, nb)
		} else {
			batch = batch[:nb]
		}
		for i := range batch {
			spec := &batch[i]
			if spec.Job, err = r.string(); err != nil {
				return err
			}
			if spec.TaskID, err = r.int(); err != nil {
				return err
			}
			if spec.Attempt, err = r.int(); err != nil {
				return err
			}
			if spec.Records, err = r.strings(spec.Records); err != nil {
				return err
			}
		}
		m.Batch = batch
	}
	nparts, err := r.uvarint()
	if err != nil {
		return err
	}
	// Each partition costs at least its id byte plus a pair count byte.
	if nparts > uint64(len(r.s)-r.off) {
		return fmt.Errorf("netmr: part list of %d partitions overruns frame", nparts)
	}
	if nparts > 0 {
		m.Parts = make([]partitionPartial, nparts)
		for i := range m.Parts {
			if m.Parts[i].ID, err = r.int(); err != nil {
				return err
			}
			if m.Parts[i].Partial, err = r.section(); err != nil {
				return err
			}
		}
	}
	if m.Trace, err = r.string(); err != nil {
		return err
	}
	nspans, err := r.uvarint()
	if err != nil {
		return err
	}
	// Each span costs at least its phase length byte plus 16 value
	// bytes, so a count larger than the remaining bytes / 17 is
	// corruption, not a huge allocation.
	if nspans > uint64(len(r.s)-r.off)/17 {
		return fmt.Errorf("netmr: span list of %d entries overruns frame", nspans)
	}
	if nspans > 0 {
		m.Spans = make([]spanSummary, nspans)
		for i := range m.Spans {
			if m.Spans[i].Phase, err = r.string(); err != nil {
				return err
			}
			if len(r.s)-r.off < 16 {
				return fmt.Errorf("netmr: truncated span interval at byte %d", r.off)
			}
			m.Spans[i].Start = math.Float64frombits(u64at(r.s, r.off))
			m.Spans[i].End = math.Float64frombits(u64at(r.s, r.off+8))
			r.off += 16
		}
	}
	if m.Run, err = r.string(); err != nil {
		return err
	}
	if m.Reducers, err = r.int(); err != nil {
		return err
	}
	if m.Fetch, err = r.string(); err != nil {
		return err
	}
	if m.Bytes, err = r.varint(); err != nil {
		return err
	}
	if m.Tasks, err = r.ints(); err != nil {
		return err
	}
	if m.Locs, err = r.locs(); err != nil {
		return err
	}
	if m.Rep, err = r.string(); err != nil {
		return err
	}
	if m.Spills, err = r.int(); err != nil {
		return err
	}
	if m.Spilled, err = r.varint(); err != nil {
		return err
	}
	if m.Total, err = r.int(); err != nil {
		return err
	}
	if m.Reps, err = r.locs(); err != nil {
		return err
	}
	if m.Failovers, err = r.int(); err != nil {
		return err
	}
	if r.off != len(r.s) {
		return fmt.Errorf("netmr: %d trailing bytes after frame", len(r.s)-r.off)
	}
	return nil
}

// u64at reads a little-endian uint64 from s: one bounds check, one load.
func u64at(s string, i int) uint64 {
	s = s[i : i+8]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}
