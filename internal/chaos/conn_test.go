package chaos

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"testing"
	"time"

	"ipso/internal/obs"
)

// pipePair returns both ends of an in-memory connection.
func pipePair() (net.Conn, net.Conn) { return net.Pipe() }

func testInjector(cfg Config) *Injector {
	cfg.Metrics = obs.NewRegistry()
	return New(cfg)
}

func TestWrapConnNilPassthrough(t *testing.T) {
	var in *Injector
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	if in.WrapConn("x", a) != a {
		t.Error("nil injector should return the conn unchanged")
	}
}

func TestInjectedLatency(t *testing.T) {
	in := testInjector(Config{Seed: 1, Latency: Dist{Kind: DistFixed, Base: 30 * time.Millisecond}})
	a, b := pipePair()
	defer b.Close()
	wrapped := in.WrapConn("lat", a)
	defer wrapped.Close()

	go func() {
		buf := make([]byte, 8)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	if _, err := wrapped.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("write returned after %v, want >= ~30ms injected latency", elapsed)
	}
}

func TestInjectedDropKillsConn(t *testing.T) {
	in := testInjector(Config{Seed: 2, DropRate: 1})
	a, b := pipePair()
	defer b.Close()
	wrapped := in.WrapConn("drop", a)

	if _, err := wrapped.Write([]byte("x")); !errors.Is(err, ErrInjectedDrop) {
		t.Fatalf("write error %v, want ErrInjectedDrop", err)
	}
	// The underlying conn is closed: subsequent ops fail too.
	if _, err := wrapped.Write([]byte("y")); err == nil {
		t.Error("write on dropped conn should keep failing")
	}
	if _, err := wrapped.Read(make([]byte, 1)); err == nil {
		t.Error("read on dropped conn should fail")
	}
}

func TestGraceOpsExemptHandshake(t *testing.T) {
	in := testInjector(Config{Seed: 3, DropRate: 1, GraceOps: 1})
	a, b := pipePair()
	defer b.Close()
	wrapped := in.WrapConn("grace", a)

	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 16)
		if _, err := b.Read(buf); err != nil {
			t.Errorf("peer read: %v", err)
		}
	}()
	if _, err := wrapped.Write([]byte("hello\n")); err != nil {
		t.Fatalf("first (grace) write should pass: %v", err)
	}
	<-done
	if _, err := wrapped.Write([]byte("x")); !errors.Is(err, ErrInjectedDrop) {
		t.Fatalf("second write error %v, want ErrInjectedDrop", err)
	}
}

// checksummedFrame is a three-segment frame whose last four bytes are the
// CRC-32C of everything before them, the way a netmr frame is checked.
func checksummedFrame() net.Buffers {
	head, body := []byte("head-of-frame"), bytes.Repeat([]byte("section bytes "), 300)
	tail := []byte("tail")
	crc := crc32.Update(crc32.Checksum(head, castagnoli), castagnoli, body)
	return net.Buffers{head, body, binary.LittleEndian.AppendUint32(tail, crc32.Update(crc, castagnoli, tail))}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// readFrame reads n bytes and reports whether their trailing CRC holds.
func readFrame(t *testing.T, c net.Conn, n int) (frame []byte, crcOK bool) {
	frame = make([]byte, n)
	if _, err := io.ReadFull(c, frame); err != nil {
		t.Errorf("peer read: %v", err)
		return nil, false
	}
	return frame, crc32.Checksum(frame[:n-4], castagnoli) == binary.LittleEndian.Uint32(frame[n-4:])
}

// TestWriteBuffersIsOneOp: a frame in three segments is one op, so the
// one grace op lets all of it through and only the next write drops.
func TestWriteBuffersIsOneOp(t *testing.T) {
	in := testInjector(Config{Seed: 3, DropRate: 1, GraceOps: 1})
	a, b := pipePair()
	defer b.Close()
	wrapped := in.WrapConn("vec", a).(*faultConn)
	frame := checksummedFrame()
	want := bytes.Join(frame, nil)
	done := make(chan []byte)
	go func() {
		got, ok := readFrame(t, b, len(want))
		if !ok {
			t.Error("frame failed its checksum")
		}
		done <- got
	}()
	if n, err := wrapped.WriteBuffers(frame); err != nil || n != int64(len(want)) {
		t.Fatalf("WriteBuffers = %d, %v; want %d bytes through the grace op", n, err, len(want))
	}
	if got := <-done; !bytes.Equal(got, want) {
		t.Fatal("frame arrived altered")
	}
	if wrapped.ops != 1 {
		t.Fatalf("a three-segment frame took %d ops, want 1", wrapped.ops)
	}
	if _, err := wrapped.WriteBuffers(checksummedFrame()); !errors.Is(err, ErrInjectedDrop) {
		t.Fatalf("second write error %v, want ErrInjectedDrop", err)
	}
}

// TestCorruptedBuffersFailTheChecksum: under sixteen seeds a frame in
// segments is corrupted exactly as the same frame written whole, the
// receiver's CRC refuses it, and the caller's segments stay as they were.
func TestCorruptedBuffersFailTheChecksum(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		frame := checksummedFrame()
		want := bytes.Join(frame, nil)
		var got [2][]byte
		for i, write := range []func(c *faultConn) error{
			func(c *faultConn) error { _, err := c.Write(want); return err },
			func(c *faultConn) error { _, err := c.WriteBuffers(frame); return err },
		} {
			a, b := pipePair()
			done := make(chan bool)
			go func() {
				var ok bool
				got[i], ok = readFrame(t, b, len(want))
				done <- ok
			}()
			if err := write(testInjector(Config{Seed: seed, CorruptRate: 1}).WrapConn("corrupt", a).(*faultConn)); err != nil {
				t.Fatal(err)
			}
			if <-done {
				t.Fatalf("seed %d: corrupted frame passed its checksum", seed)
			}
			a.Close()
			b.Close()
		}
		if !bytes.Equal(got[0], got[1]) {
			t.Fatalf("seed %d: the frame in segments was corrupted unlike the frame written whole", seed)
		}
		if !bytes.Equal(bytes.Join(frame, nil), want) {
			t.Fatalf("seed %d: corruption reached the caller's segments", seed)
		}
	}
}

func TestCorruptionBreaksJSONButKeepsFraming(t *testing.T) {
	in := testInjector(Config{Seed: 4, CorruptRate: 1})
	a, b := pipePair()
	defer b.Close()
	wrapped := in.WrapConn("corrupt", a)
	defer wrapped.Close()

	type frame struct{ Greeting string }
	payload, err := json.Marshal(frame{Greeting: "hello world, this is a frame"})
	if err != nil {
		t.Fatal(err)
	}
	payload = append(payload, '\n')

	lines := make(chan []byte, 1)
	go func() {
		r := bufio.NewReader(b)
		line, err := r.ReadBytes('\n')
		if err != nil {
			t.Errorf("peer read: %v", err)
		}
		lines <- line
	}()
	if _, err := wrapped.Write(payload); err != nil {
		t.Fatal(err)
	}
	line := <-lines
	if string(line) == string(payload) {
		t.Fatal("payload arrived uncorrupted")
	}
	if line[len(line)-1] != '\n' {
		t.Fatal("frame delimiter lost")
	}
	var decoded frame
	if err := json.Unmarshal(line, &decoded); err == nil && decoded == (frame{Greeting: "hello world, this is a frame"}) {
		t.Error("corruption did not change the decoded frame")
	}
}

func TestPartitionWindowAffectsAllConns(t *testing.T) {
	in := testInjector(Config{Seed: 5, PartitionRate: 1, PartitionDuration: 100 * time.Millisecond})
	a1, b1 := pipePair()
	a2, b2 := pipePair()
	defer b1.Close()
	defer b2.Close()
	w1 := in.WrapConn("p1", a1)
	w2 := in.WrapConn("p2", a2)
	defer w1.Close()
	defer w2.Close()

	// First write on w1 opens the partition window and fails.
	if _, err := w1.Write([]byte("x")); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("w1 write error %v, want ErrPartitioned", err)
	}
	// The sibling connection is partitioned too (correlated failure) —
	// reads never trigger partitions themselves, so probe with a read.
	if _, err := w2.Read(make([]byte, 1)); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("w2 read error %v, want ErrPartitioned", err)
	}
}

func TestWrapConnSameStreamSameSchedule(t *testing.T) {
	// Two injectors with the same seed wrapping a conn under the same
	// stream name must make identical decisions — the property that
	// makes a chaos run reproducible.
	mk := func() (net.Conn, func()) {
		a, b := pipePair()
		go func() {
			buf := make([]byte, 64)
			for {
				if _, err := b.Read(buf); err != nil {
					return
				}
			}
		}()
		return a, func() { a.Close(); b.Close() }
	}
	run := func() []bool {
		in := testInjector(Config{Seed: 6, DropRate: 0.3})
		var outcomes []bool
		for c := 0; c < 8; c++ {
			raw, cleanup := mk()
			w := in.WrapConn("", raw) // unkeyed: wrap-ordinal stream
			ok := true
			for op := 0; op < 4; op++ {
				if _, err := w.Write([]byte("op\n")); err != nil {
					ok = false
					break
				}
			}
			outcomes = append(outcomes, ok)
			cleanup()
		}
		return outcomes
	}
	first, second := run(), run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("conn %d outcome differs between identically seeded runs", i)
		}
	}
}
