package netmr

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// sectionFromMap encodes m as the section a map task would have built.
func sectionFromMap(m map[string]float64) section {
	keys, vals, refs := make([]string, 0, len(m)), make([]float64, 0, len(m)), make([]keyRef, 2*len(m))
	for k, v := range m {
		refs[len(keys)].id = uint32(len(keys))
		keys, vals = append(keys, k), append(vals, v)
	}
	sortRefs(refs[:len(m)], refs[len(m):], keys, 0)
	return encodeSection(refs[:len(m)], keys, vals)
}

// toMap decodes the section (nil when empty).
func (s section) toMap() map[string]float64 {
	if len(s) == 0 {
		return nil
	}
	m := make(map[string]float64, s.count())
	s.addTo(m)
	return m
}

// dialAsWorker joins the master at addr the way Worker.Start does — hello
// out, helloack back — and returns the connection and the helloack: the
// starting point of every test peer that then misbehaves.
func dialAsWorker(t testing.TB, addr, id, fetch string) (*conn, message) {
	t.Helper()
	raw, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(raw)
	t.Cleanup(func() { _ = c.close() })
	if err := c.send(message{Type: "hello", ID: id, Jobs: []string{"wordcount"}, Fetch: fetch}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	ack, err := c.recv(5 * time.Second)
	if err != nil || ack.Type != "helloack" {
		t.Fatalf("helloack: %+v, %v", ack, err)
	}
	return c, ack
}

// rogueWorker joins the master as id and serves like a real worker — its
// own shuffle listener and store, every frame handled by Worker.handle —
// except for the frames reply claims: reply returns the frame to answer m
// with, or false to leave m to the worker.
func rogueWorker(t *testing.T, addr, id string, reply func(m message) (message, bool)) {
	t.Helper()
	rogueServe(t, addr, id, func(_ *Worker, c *conn, m message) (bool, bool) {
		r, ok := reply(m)
		return ok, !ok || c.send(r, 5*time.Second) == nil
	})
}

// rogueServe is rogueWorker with the connection in hand: serve answers m
// itself and says whether the rogue lives on, or leaves m to the worker
// (handled false).
func rogueServe(t *testing.T, addr, id string, serve func(w *Worker, c *conn, m message) (handled, alive bool)) {
	t.Helper()
	w, err := NewWorker(mustRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	if w.fetchAddr, err = w.startFetchListener(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	c, ack := dialAsWorker(t, addr, id, w.fetchAddr)
	w.reducers = ack.Reducers
	w.store.setReducers(ack.Reducers)
	go func() {
		for {
			m, err := c.recv(0)
			if err != nil {
				return
			}
			if handled, alive := serve(w, c, m); !alive {
				return
			} else if !handled && !w.handle(c, m) {
				return
			}
		}
	}()
}

// streamConn is a net.Conn whose reads come from a byte slice and whose
// writes are kept: what a conn does with bytes a peer could send, without
// a socket.
type streamConn struct {
	net.Conn
	in  *bytes.Reader
	out bytes.Buffer
}

func (s *streamConn) Read(p []byte) (int, error)       { return s.in.Read(p) }
func (s *streamConn) Write(p []byte) (int, error)      { return s.out.Write(p) }
func (s *streamConn) SetReadDeadline(time.Time) error  { return nil }
func (s *streamConn) SetWriteDeadline(time.Time) error { return nil }

// recvStream is one recv on a new connection that delivers stream.
func recvStream(stream []byte) (message, *streamConn, error) {
	sc := &streamConn{in: bytes.NewReader(stream)}
	m, err := newConn(sc).recv(time.Second)
	return m, sc, err
}

// streamOf frames a checksummed body the way it travels on a new
// connection: preamble, length, body.
func streamOf(raw []byte) []byte {
	return append(binary.AppendUvarint(afterPreamble(nil), uint64(len(raw))), raw...)
}

// afterPreamble is what a new connection delivers when b follows its
// preamble.
func afterPreamble(b []byte) []byte {
	return append(preamble[:len(preamble):len(preamble)], b...)
}

// resum rewrites raw's trailing CRC after an edit, so the edit is what the
// decoder has to catch.
func resum(raw []byte) []byte {
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.Checksum(raw[:len(raw)-4], crcTable))
	return raw
}

// overrunCount returns with's raw body with the count of the list that
// sets it apart from base raised past the frame's end.
func overrunCount(t *testing.T, base, with message) []byte {
	t.Helper()
	a, b := frameBody(t, encodeBinary(t, base)), frameBody(t, encodeBinary(t, with))
	for i := range a {
		if a[i] != b[i] {
			b[i] = 0x7f
			return resum(b)
		}
	}
	t.Fatal("the two messages encode alike")
	return nil
}

// TestFrameRefusals pins every check on bytes from outside to the one
// layout: each stream must be refused by recv without allocating more
// than a small multiple of the bytes received, or, for a body that
// declares more than it sends, more than the first step of its buffer.
func TestFrameRefusals(t *testing.T) {
	pair := func(k string) string {
		return string(binary.LittleEndian.AppendUint64(appendString(nil, k), math.Float64bits(1)))
	}
	withSection := func(sec string) []byte {
		m := message{Type: "fetchresult", Parts: []partitionPartial{{ID: 0, Partial: section(sec)}}}
		return streamOf(frameBody(t, encodeBinary(t, m)))
	}
	shard := func(records ...string) message {
		return message{Type: "taskbatch", Batch: []taskSpec{{Job: "wc", Records: records}}}
	}
	valid := frameBody(t, encodeBinary(t, shard("a b", "c")))
	big := encodeBinary(t, shard(strings.Repeat("x", 1<<20)))

	badCRC := bytes.Clone(valid)
	badCRC[len(badCRC)-1] ^= 1
	trailing := resum(append(bytes.Clone(valid[:len(valid)-4]), 0, 0, 0, 0, 0))

	cases := []struct {
		name   string
		stream []byte
		bound  uint64 // the allocation bound when the default does not apply
	}{
		{name: "bad CRC", stream: streamOf(badCRC)},
		{name: "truncated body", stream: afterPreamble(big[:len(big)/2])},
		{name: "trailing bytes", stream: streamOf(trailing)},
		{name: "length prefix over the cap", stream: binary.AppendUvarint(afterPreamble(nil), maxFrameBytes+1)},
		{name: "length prefix at the cap, 5 bytes sent", stream: append(binary.AppendUvarint(afterPreamble(nil), maxFrameBytes), 1, 2, 3, 4, 5), bound: 2 << 20},
		{name: "empty body", stream: streamOf(nil)},
		{name: "unsorted section keys", stream: withSection("\x02" + pair("b") + pair("a"))},
		{name: "repeated section key", stream: withSection("\x02" + pair("a") + pair("a"))},
		{name: "string count overrun", stream: streamOf(overrunCount(t, message{Type: "hello"}, message{Type: "hello", Jobs: []string{"r"}}))},
		{name: "int count overrun", stream: streamOf(overrunCount(t, message{Type: "fetch"}, message{Type: "fetch", Tasks: []int{1}}))},
		{name: "loc count overrun", stream: streamOf(overrunCount(t, message{Type: "morelocs"}, message{Type: "morelocs", Locs: []fetchLoc{{Addr: "a:1"}}}))},
		{name: "span count overrun", stream: streamOf(overrunCount(t, message{Type: "mapdone"}, message{Type: "mapdone", Spans: []spanSummary{{Phase: "map"}}}))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, _, err := recvStream(tc.stream)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("accepted: %+v", m)
			}
			// The bufio reader and the conn are the constant; a frame is read
			// into a buffer of its declared size, at most the stream's own,
			// or into the first step of one.
			bound := tc.bound
			if bound == 0 {
				bound = uint64(4*len(tc.stream) + 32<<10)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > bound {
				t.Errorf("refusing %d bytes allocated %d, more than %d", len(tc.stream), grew, bound)
			}
		})
	}
	if m, _, err := recvStream(streamOf(valid)); err != nil || len(m.Batch) != 1 || m.Batch[0].Job != "wc" {
		t.Fatalf("control stream refused: %+v, %v", m, err)
	}
	// A body past recvStep arrives through the probe.
	huge := strings.Repeat("x", 3<<20)
	if m, _, err := recvStream(streamOf(frameBody(t, encodeBinary(t, shard(huge))))); err != nil || m.Batch[0].Records[0] != huge {
		t.Fatalf("a body of %d bytes: %v", len(huge), err)
	}

	// A map task the worker cannot key or partition is refused with an
	// error frame per shard naming the cause, and the worker keeps serving.
	for _, tc := range []struct {
		name     string
		reducers int
		frame    message
		cause    string
	}{
		{"task without a run id", 2, message{Type: "taskbatch", Batch: []taskSpec{{Job: "wordcount", TaskID: 3, Records: []string{"a b"}}}}, "map task 3 has no run id"},
		{"taskbatch without a run id", 2, message{Type: "taskbatch", Batch: []taskSpec{
			{Job: "wordcount", TaskID: 4, Records: []string{"a"}}, {Job: "wordcount", TaskID: 5}}}, "has no run id"},
		{"task before the helloack", 0, message{Type: "taskbatch", Batch: []taskSpec{{Job: "wordcount", TaskID: 6}}, Run: "wordcount#1"}, "map task 6 arrived before a helloack set the reducer count"},
	} {
		t.Run("worker refuses "+tc.name, func(t *testing.T) {
			w, err := NewWorker(mustRegistry(t))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(w.Stop)
			w.reducers = tc.reducers
			master, worker := net.Pipe()
			served := make(chan struct{})
			go func() {
				defer close(served)
				w.serve(newConn(worker))
			}()
			c := newConn(master)
			defer func() {
				_ = c.close()
				<-served
			}()
			if err := c.send(tc.frame, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			for i := range tc.frame.Batch {
				reply, err := c.recv(5 * time.Second)
				if err != nil || reply.Type != "error" || !strings.Contains(reply.Message, tc.cause) {
					t.Fatalf("reply %d: %+v, %v; want an error frame saying %q", i, reply, err, tc.cause)
				}
			}
			if err := c.send(message{Type: "ping"}, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			if reply, err := c.recv(5 * time.Second); err != nil || reply.Type != "pong" {
				t.Fatalf("after the refusal: %+v, %v; want a pong", reply, err)
			}
		})
	}
}

// openFDs counts this process's descriptors (-1 where /proc is absent).
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestProtocolVersionMismatch: a peer that opens with another version (a
// later one, v2, the generation before the release frame, or v3, the one
// before the chunk frame), or with bytes that are no preamble at all, is
// refused on the master port and on a shuffle port alike — the listener answers its own preamble and
// hangs up, so whichever end reads names both versions — and a refusal
// leaves nothing behind: no worker counted, no goroutine, no descriptor,
// and the next good worker is admitted.
func TestProtocolVersionMismatch(t *testing.T) {
	master, err := NewMaster(mustRegistry(t), MasterConfig{TaskTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	masterAddr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	server, err := NewWorker(mustRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	shuffleAddr, err := server.startFetchListener()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Stop)
	// A listener from another generation: it reads a dialer's opening,
	// answers with its own preamble and hangs up, as this build's do.
	other, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = other.Close() })
	go func() {
		for {
			raw, err := other.Accept()
			if err != nil {
				return
			}
			_, _ = raw.Read(make([]byte, 4096))
			_, _ = raw.Write([]byte{'N', 'M', 'R', protocolVersion + 1})
			_ = raw.Close()
		}
	}()

	goroutines, fds := runtime.NumGoroutine(), openFDs()
	wantErr := fmt.Sprintf("peer speaks v%d, this build speaks v%d", protocolVersion+1, protocolVersion)

	hello := encodeBinary(t, message{Type: "hello", ID: "stranger", Jobs: []string{"wordcount"}, Fetch: "127.0.0.1:1"})
	for _, port := range []struct{ name, addr string }{{"master", masterAddr}, {"shuffle", shuffleAddr}} {
		for _, opening := range []struct {
			name  string
			bytes []byte
		}{
			{"wrong version", append([]byte{'N', 'M', 'R', protocolVersion + 1}, hello...)},
			{"v2 peer", append([]byte{'N', 'M', 'R', 2}, hello...)},
			{"v3 peer", append([]byte{'N', 'M', 'R', 3}, hello...)},
			{"wrong magic", []byte("GET / HTTP/1.1\r\n\r\n")},
		} {
			raw, err := net.DialTimeout("tcp", port.addr, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := raw.Write(opening.bytes); err != nil {
				t.Fatal(err)
			}
			_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
			answer, err := io.ReadAll(raw)
			_ = raw.Close()
			if err != nil || !bytes.Equal(answer, preamble[:]) {
				t.Errorf("%s port, %s: answered %q, %v; want this build's preamble and a hang-up", port.name, opening.name, answer, err)
			}
		}
	}
	if n := master.WorkerCount(); n != 0 {
		t.Errorf("WorkerCount = %d after refusals", n)
	}

	// The dialing side reads the listener's preamble and names both.
	stray, err := NewWorker(mustRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := stray.Start(other.Addr().String()); err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Errorf("Start against another version = %v, want an error saying %q", err, wantErr)
	}
	stray.Stop()
	pool := newShufflePool(1)
	if _, _, err := pool.fetchPartition(other.Addr().String(), "wc#1", 0, []int{0}, 5*time.Second); err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Errorf("fetch from another version = %v, want an error saying %q", err, wantErr)
	}
	pool.closeAll()
	// And what a conn answers a bad opening with, seen without a socket.
	for _, opening := range [][]byte{{'N', 'M', 'R', protocolVersion + 1, 0}, []byte("XMR\x01\x00"), []byte("NM")} {
		_, sc, err := recvStream(opening)
		if err == nil {
			t.Errorf("opening %q accepted", opening)
		}
		if want := len(opening) >= len(preamble); (sc.out.String() == string(preamble[:])) != want {
			t.Errorf("opening %q answered %q", opening, sc.out.String())
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for (runtime.NumGoroutine() > goroutines || (fds >= 0 && openFDs() > fds)) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after the refusals, %d before", n, goroutines)
	}
	if n := openFDs(); fds >= 0 && n > fds {
		t.Errorf("%d descriptors after the refusals, %d before", n, fds)
	}

	good, err := NewWorker(mustRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Start(masterAddr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(good.Stop)
	if err := master.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, _, err := master.Run(context.Background(), "wordcount", testLines(t, 20), 2); err != nil {
		t.Fatal(err)
	}
}

// TestRefusedAdmissionLeavesNothing: a worker the pool has no room for
// must not stay behind as a live shuffle address (replicas would be
// routed to it) or in the worker count.
func TestRefusedAdmissionLeavesNothing(t *testing.T) {
	master, err := NewMaster(mustRegistry(t), MasterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	master.idle = make(chan *workerHandle) // no room: every admission is refused
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	c, _ := dialAsWorker(t, addr, "no-room", "127.0.0.1:7001")
	if _, err := c.recv(5 * time.Second); err == nil {
		t.Fatal("the refused worker's connection stayed open")
	}
	if addrs := master.liveAddrs(); len(addrs) != 0 {
		t.Errorf("liveAddrs = %v after a refused admission", addrs)
	}
	if n := master.WorkerCount(); n != 0 {
		t.Errorf("WorkerCount = %d after a refused admission", n)
	}
	if got := master.pickReplicaAddr("127.0.0.1:7002"); got != "" {
		t.Errorf("pickReplicaAddr names %q, the refused worker", got)
	}
}
