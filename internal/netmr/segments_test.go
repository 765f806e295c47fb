package netmr

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"ipso/internal/chaos"
)

// A frame leaves as segments: its fields in the encoder's buffer and each
// section of sectionRefBytes or more from where it lies. These tests hold
// the segments to the contiguous encoding (every section copied in, what
// the committed fuzz corpus pins byte for byte), and the send path to one
// write, one chaos op, and no more allocations than a contiguous send.

// textSection is a section of n shared-prefix keys.
func textSection(n, salt int) section {
	m := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		m[fmt.Sprintf("shared-prefix-key-%05d", i*3+salt)] = float64(i)
	}
	return sectionFromMap(m)
}

// segmentFamilies is every frame family with big (referenced) and small
// (copied) sections in it, built over the two big sections a and b.
func segmentFamilies(a, b section) []message {
	small := sectionFromMap(map[string]float64{"inline": 1, "small": 2})
	parts := []partitionPartial{{ID: 0, Partial: a}, {ID: 1, Partial: small}, {ID: 2, Partial: b}, {ID: 3}}
	locs := []fetchLoc{{Addr: "127.0.0.1:7001", Tasks: []int{0, 2}}}
	spans := []spanSummary{{Phase: "encode", Start: 0.5, End: 0.75}}
	return []message{
		{Type: "taskbatch", Batch: []taskSpec{{Job: "wc", TaskID: 1, Records: []string{"r1", strings.Repeat("r", 20000)}}}, Run: "wc#1"},
		{Type: "taskbatch", Batch: []taskSpec{{Job: "wc", TaskID: 2, Records: []string{"a", "b"}}}},
		{Type: "mapdone", TaskID: 3, Attempt: 1, Run: "wc#1", Spans: spans},
		{Type: "mapdone", TaskID: 3, Run: "wc#1", Rep: "127.0.0.1:7002"},
		{Type: "mapdone", TaskID: 3, Run: "wc#1", Spills: 2, Spilled: 1 << 20},
		{Type: "replicate", TaskID: 3, Run: "wc#1", Reducers: 4, Parts: parts},
		{Type: "fetchresult", TaskID: 2, Parts: parts},
		{Type: "reducetask", Job: "wc", TaskID: 2, Run: "wc#1", Locs: locs, Reps: locs, Total: 6},
		{Type: "morelocs", TaskID: 2, Run: "wc#1", Locs: locs},
		{Type: "result", TaskID: 2, Folded: a, Bytes: 99, Failovers: 1, Spans: spans},
		{Type: "result", TaskID: 2, Folded: small},
		{Type: "hello", ID: "w", Jobs: []string{"wc"}, Fetch: "127.0.0.1:7003"},
		{Type: "helloack", Reducers: 4},
		{Type: "ping"},
		{Type: "error", TaskID: 2, Message: "fetch failed", Fetch: "127.0.0.1:7001"},
	}
}

// TestSegmentsAreTheContiguousFrame: for every frame family the segments
// concatenated are the contiguous encoding byte for byte, lead included,
// and the big sections are sent from their own bytes.
func TestSegmentsAreTheContiguousFrame(t *testing.T) {
	tera := teraSections(2, 400)
	a, b := tera[0].Partial, tera[1].Partial
	if len(a) < sectionRefBytes || len(b) < sectionRefBytes {
		t.Fatalf("fixture sections of %d and %d bytes are not referenced", len(a), len(b))
	}
	for _, m := range segmentFamilies(a, b) {
		var whole, split frameEnc
		want, err := whole.encode(&m, preamble[:], math.MaxInt)
		if err != nil || len(want) != 1 {
			t.Fatalf("%s: contiguous encode gave %d segments, %v", m.Type, len(want), err)
		}
		segs, err := split.encode(&m, preamble[:], sectionRefBytes)
		if err != nil {
			t.Fatalf("%s: %v", m.Type, err)
		}
		if !bytes.Equal(bytes.Join(segs, nil), want[0]) {
			t.Fatalf("%s: the segments are not the contiguous frame", m.Type)
		}
		wantRefs := 0 // the big sections the frame carries
		if m.Folded == a {
			wantRefs = 1
		} else if len(m.Parts) > 0 {
			wantRefs = 2
		}
		refs := 0
		for _, seg := range segs {
			for _, sec := range []section{a, b} {
				if len(seg) == len(sec) && &seg[0] == unsafe.StringData(string(sec)) {
					refs++
				}
			}
		}
		if refs != wantRefs || len(segs) != 1+2*wantRefs {
			t.Fatalf("%s: %d segments, %d of them sections sent in place; want %d in place", m.Type, len(segs), refs, wantRefs)
		}
	}
}

// TestSegmentedFrameRoundTrips sends frames with three referenced sections
// over a loopback TCP pair (one writev) and over net.Pipe (one write per
// segment), each followed by a small frame: all arrive as they were sent.
func TestSegmentedFrameRoundTrips(t *testing.T) {
	tcp := func(t *testing.T) (net.Conn, net.Conn) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		a, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		b, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	pipe := func(*testing.T) (net.Conn, net.Conn) { return net.Pipe() }
	sent := []message{
		{Type: "replicate", TaskID: 7, Run: "tera#1", Reducers: 3, Parts: teraSections(3, 400)},
		{Type: "fetchresult", TaskID: 1, Parts: []partitionPartial{{ID: 0, Partial: textSection(3000, 0)}, {ID: 4, Partial: textSection(3000, 1)}}},
		{Type: "replicate", TaskID: 8, Run: "tera#1", Reducers: 3, Parts: teraSections(3, 400)},
		{Type: "ping"},
	}
	for name, pair := range map[string]func(*testing.T) (net.Conn, net.Conn){"tcp": tcp, "pipe": pipe} {
		t.Run(name, func(t *testing.T) {
			a, b := pair(t)
			defer a.Close()
			defer b.Close()
			if name == "tcp" {
				if _, ok := a.(*net.TCPConn); !ok {
					t.Fatalf("dialed a %T, want *net.TCPConn", a)
				}
			}
			errc := make(chan error, 1)
			go func() {
				c := newConn(a)
				for _, m := range sent {
					if err := c.send(m, 5*time.Second); err != nil {
						errc <- err
						return
					}
				}
				errc <- nil
			}()
			r := newConn(b)
			for _, want := range sent {
				got, err := r.recv(5 * time.Second)
				if err != nil {
					t.Fatalf("recv %s: %v", want.Type, err)
				}
				if !reflect.DeepEqual(normalize(got), normalize(want)) {
					t.Fatalf("%s arrived altered", want.Type)
				}
			}
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// sinkConn is a net.Conn that counts and drops what is written to it.
type sinkConn struct {
	net.Conn
	n int
}

func (s *sinkConn) Write(b []byte) (int, error)    { s.n += len(b); return len(b), nil }
func (*sinkConn) SetWriteDeadline(time.Time) error { return nil }

// TestSendAllocs: a control frame and a smalljobs-sized result (a 5 KB
// section, copied in) cost a warm send no allocation, as they did when
// every frame was one contiguous buffer.
func TestSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	words := make(map[string]float64, 300)
	for i := 0; i < 300; i++ {
		words[fmt.Sprintf("word%03d", i)] = float64(i)
	}
	c := newConn(&sinkConn{})
	for _, m := range []message{
		{Type: "ping"},
		{Type: "result", TaskID: 1, Folded: sectionFromMap(words), Spans: []spanSummary{{Phase: "reduce", End: 1}}},
	} {
		if allocs := testing.AllocsPerRun(200, func() {
			if err := c.send(m, 0); err != nil {
				t.Fatal(err)
			}
		}); allocs > 0 {
			t.Errorf("a warm %s send costs %v allocations, want 0", m.Type, allocs)
		}
	}
}

// TestOversizedFrameIsRefusedBeforeWriting: sections that add up past
// maxFrameBytes fail the send before its first byte reaches the conn,
// though no one of them is over the cap and none is copied.
func TestOversizedFrameIsRefusedBeforeWriting(t *testing.T) {
	third := section(strings.Repeat("x", maxFrameBytes/3+1))
	sink := &sinkConn{}
	err := newConn(sink).send(message{Type: "replicate", Parts: []partitionPartial{{ID: 0, Partial: third}, {ID: 1, Partial: third}, {ID: 2, Partial: third}}}, 0)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("send of a %d-byte frame: %v, want the limit refused", 3*len(third), err)
	}
	if sink.n != 0 {
		t.Fatalf("%d bytes written before the refusal", sink.n)
	}
}

// TestSegmentedFrameIsOneChaosOp: through a chaos conn whose one grace op
// is the first write, a connection's first frame — preamble and three
// referenced sections — arrives whole, and only the next frame drops.
func TestSegmentedFrameIsOneChaosOp(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	c := newConn(chaos.New(chaos.Config{Seed: 5, DropRate: 1, GraceOps: 1}).WrapConn("frame", a))
	m := message{Type: "replicate", TaskID: 7, Run: "tera#1", Reducers: 3, Parts: teraSections(3, 400)}
	got := make(chan message, 1)
	go func() {
		in, err := newConn(b).recv(5 * time.Second)
		if err != nil {
			t.Errorf("recv: %v", err)
		}
		got <- in
	}()
	if err := c.send(m, 5*time.Second); err != nil {
		t.Fatalf("first frame, the grace op: %v", err)
	}
	if in := <-got; !reflect.DeepEqual(normalize(in), normalize(m)) {
		t.Fatal("the frame arrived altered")
	}
	if err := c.send(message{Type: "ping"}, time.Second); !errors.Is(err, chaos.ErrInjectedDrop) {
		t.Fatalf("second frame: %v, want the injected drop", err)
	}
}
