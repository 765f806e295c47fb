package chaos

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"time"
)

// ErrInjectedDrop is returned by a wrapped connection the injector
// decided to kill; the underlying connection is closed with it.
var ErrInjectedDrop = errors.New("chaos: injected connection drop")

// ErrPartitioned is returned while the injector-wide partition window
// is open; the connection itself stays alive and recovers when the
// window closes.
var ErrPartitioned = errors.New("chaos: injected network partition")

// WrapConn decorates c with the injector's wire-level faults. stream
// names the decision stream; wrapping two connections under the same
// stream and seed yields the same per-operation fault sequence for
// each, so a test can pin the exact schedule a connection will see.
// A nil injector returns c unchanged.
func (in *Injector) WrapConn(stream string, c net.Conn) net.Conn {
	if in == nil {
		return c
	}
	in.mu.Lock()
	n := in.conns
	in.conns++
	in.mu.Unlock()
	if stream == "" {
		// Unkeyed wrap: fall back to the wrap ordinal, deterministic as
		// long as connections are wrapped in a stable order.
		return &faultConn{Conn: c, in: in, rng: in.stream("conn", n)}
	}
	return &faultConn{Conn: c, in: in, rng: in.stream("conn/" + stream)}
}

// faultConn is the net.Conn decorator. The embedded Conn keeps
// addresses and deadlines transparent; only Read and Write inject.
type faultConn struct {
	net.Conn
	in  *Injector
	rng *SplitMix64

	mu      sync.Mutex // serializes rng draws and op accounting
	ops     int
	dropped bool
}

// before draws the shared pre-op faults (grace, partition, latency,
// and for writes drop/corrupt/partition triggers); it reports whether
// the op may proceed and whether a write payload should be corrupted.
func (f *faultConn) before(isWrite bool) (corrupt bool, err error) {
	f.mu.Lock()
	f.ops++
	op := f.ops
	if f.dropped {
		f.mu.Unlock()
		return false, ErrInjectedDrop
	}
	if op <= f.in.cfg.GraceOps {
		f.mu.Unlock()
		return false, nil
	}
	delay := f.in.cfg.Latency.sample(f.rng)
	var drop, partition bool
	if isWrite {
		cfg := f.in.cfg
		if cfg.DropRate > 0 && f.rng.Float64() < cfg.DropRate {
			drop = true
			f.dropped = true
		}
		if cfg.CorruptRate > 0 && f.rng.Float64() < cfg.CorruptRate {
			corrupt = true
		}
		if cfg.PartitionRate > 0 && f.rng.Float64() < cfg.PartitionRate {
			partition = true
		}
	}
	f.mu.Unlock()

	if delay > 0 {
		f.in.record("latency")
		time.Sleep(delay)
	}
	if partition {
		f.in.record("partition")
		f.in.startPartition(time.Now())
	}
	if f.in.partitioned(time.Now()) {
		return false, ErrPartitioned
	}
	if drop {
		f.in.record("drop")
		f.Conn.Close()
		return false, ErrInjectedDrop
	}
	return corrupt, nil
}

// alive reports the injected-drop state: deadline setters on a conn the
// injector already killed surface ErrInjectedDrop (the cause) instead of
// the underlying "use of closed network connection".
func (f *faultConn) alive() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dropped {
		return ErrInjectedDrop
	}
	return nil
}

func (f *faultConn) SetDeadline(t time.Time) error {
	if err := f.alive(); err != nil {
		return err
	}
	return f.Conn.SetDeadline(t)
}

func (f *faultConn) SetReadDeadline(t time.Time) error {
	if err := f.alive(); err != nil {
		return err
	}
	return f.Conn.SetReadDeadline(t)
}

func (f *faultConn) SetWriteDeadline(t time.Time) error {
	if err := f.alive(); err != nil {
		return err
	}
	return f.Conn.SetWriteDeadline(t)
}

func (f *faultConn) Read(b []byte) (int, error) {
	if _, err := f.before(false); err != nil {
		return 0, err
	}
	return f.Conn.Read(b)
}

func (f *faultConn) Write(b []byte) (int, error) {
	corrupt, err := f.before(true)
	if err != nil {
		return 0, err
	}
	if corrupt && len(b) > 0 {
		b = corruptPayload(b, f.rngDraw())
		f.in.record("corrupt")
	}
	return f.Conn.Write(b)
}

// WriteBuffers writes v, the segments of one frame, as one op: its faults
// are drawn once, and the wrapped conn gets v in one vectored write (one
// writev on a TCP conn), so GraceOps and every op-numbered schedule count
// a frame as one op however it is cut. A corruption flips the bit Write
// would flip in the frame written whole, in a copy of it.
func (f *faultConn) WriteBuffers(v net.Buffers) (int64, error) {
	corrupt, err := f.before(true)
	if err != nil {
		return 0, err
	}
	if corrupt {
		f.in.record("corrupt")
		n, err := f.Conn.Write(corruptPayload(bytes.Join(v, nil), f.rngDraw()))
		return int64(n), err
	}
	return v.WriteTo(f.Conn)
}

// rngDraw takes one value from the stream under the lock.
func (f *faultConn) rngDraw() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Uint64()
}

// corruptPayload flips one bit of a non-newline byte in a copy of b, so
// line framing survives but the payload no longer decodes.
func corruptPayload(b []byte, r uint64) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	for probe := 0; probe < len(out); probe++ {
		i := int((r + uint64(probe)) % uint64(len(out)))
		if out[i] == '\n' || out[i] == '\r' {
			continue
		}
		out[i] ^= 1 << (r % 7) // never bit 7: keeps ASCII printable-ish
		if out[i] == '\n' {
			out[i] ^= 1 << (r % 7) // undo: landed on the frame delimiter
			continue
		}
		return out
	}
	return out
}
