package netmr

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Pooled shuffle-plane connections. Before pooling, every reduce-side
// fetch and every replication push dialed the peer fresh — a TCP
// handshake per exchange that scales with both the cluster width and
// the map task count, pure per-degree overhead q(n) in the IPSO
// decomposition. The pool keeps idle connections per peer and reuses
// them across exchanges; serveFetch already serves any number of
// requests per connection, so the protocol needed no change.
//
// A cached connection can be stale (the peer restarted, an idle
// timeout fired, a chaos fault cut it), and staleness only surfaces on
// use. withConn therefore retries exactly once on a fresh dial when an
// exchange over a pooled connection fails — a failure on the fresh
// connection is a real peer failure and propagates. Application-level
// refusals (an error frame from a healthy peer) are not connection
// failures: the connection returns to the pool and the refusal
// propagates without a redial.

// defaultShufflePoolPerPeer caps the idle connections kept per peer.
// The parallel gather holds at most fanout connections to one peer at
// a time, so the cap follows the default fanout.
const defaultShufflePoolPerPeer = 4

// shufflePool is a worker's cache of idle shuffle-plane connections,
// keyed by peer address. Fetch goroutines check conns out and in
// concurrently; each checked-out conn is used by one goroutine.
type shufflePool struct {
	mu      sync.Mutex
	perPeer int
	idle    map[string][]*conn
	closed  bool
}

func newShufflePool(perPeer int) *shufflePool {
	if perPeer <= 0 {
		perPeer = defaultShufflePoolPerPeer
	}
	return &shufflePool{perPeer: perPeer, idle: map[string][]*conn{}}
}

// peerRefusal marks an application-level refusal carried on an error
// frame: the connection is healthy (the peer answered), only the
// request was rejected. withConn keeps the connection pooled and never
// redials for one.
type peerRefusal struct{ msg string }

func (e *peerRefusal) Error() string { return e.msg }

func isPeerRefusal(err error) bool {
	var pr *peerRefusal
	return errors.As(err, &pr)
}

// dialShuffle opens a fresh shuffle-plane connection; its preamble
// leaves with the first exchange.
func dialShuffle(addr string, timeout time.Duration) (*conn, error) {
	raw, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("netmr: shuffle dial %s: %w", addr, err)
	}
	return newConn(raw), nil
}

// get pops an idle connection to addr, or nil when the exchange must
// dial.
func (p *shufflePool) get(addr string) *conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	stack := p.idle[addr]
	if len(stack) == 0 {
		workerPoolOps.With("miss").Inc()
		return nil
	}
	c := stack[len(stack)-1]
	p.idle[addr] = stack[:len(stack)-1]
	workerPoolOps.With("hit").Inc()
	return c
}

// put returns a healthy connection to addr's idle stack; a full stack
// or a closed pool closes it instead.
func (p *shufflePool) put(addr string, c *conn) {
	p.mu.Lock()
	if p.closed || len(p.idle[addr]) >= p.perPeer {
		p.mu.Unlock()
		_ = c.close()
		workerPoolOps.With("evict").Inc()
		return
	}
	p.idle[addr] = append(p.idle[addr], c)
	p.mu.Unlock()
}

// evict closes one checked-out connection that failed mid-exchange.
func (p *shufflePool) evict(c *conn) {
	_ = c.close()
	workerPoolOps.With("evict").Inc()
}

// closeAll closes every idle connection and marks the pool closed, so
// later puts close their connections instead of caching them — the
// Worker.Stop teardown.
func (p *shufflePool) closeAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for addr, stack := range p.idle {
		for _, c := range stack {
			_ = c.close()
		}
		delete(p.idle, addr)
	}
}

// withConn runs one shuffle exchange against addr over a pooled
// connection: check out or dial, run fn, check the connection back in
// on success (or refusal). A failure over a pooled connection is
// indistinguishable from staleness, so the connection is evicted and
// fn retried exactly once over a fresh dial; a failure over a fresh
// connection propagates.
func (p *shufflePool) withConn(addr string, timeout time.Duration, fn func(c *conn) error) error {
	if c := p.get(addr); c != nil {
		err := fn(c)
		if err == nil || isPeerRefusal(err) {
			p.put(addr, c)
			return err
		}
		p.evict(c)
	}
	c, err := dialShuffle(addr, timeout)
	if err != nil {
		return err
	}
	err = fn(c)
	if err == nil || isPeerRefusal(err) {
		p.put(addr, c)
		return err
	}
	p.evict(c)
	return err
}

// fetchPartition runs one fetch exchange over the pool: reused
// connection, stale-redial-once.
func (p *shufflePool) fetchPartition(addr, run string, partition int, tasks []int, timeout time.Duration) (parts []partitionPartial, n, saved int64, err error) {
	err = p.withConn(addr, timeout, func(c *conn) error {
		var ferr error
		parts, n, saved, ferr = fetchExchange(c, addr, run, partition, tasks, timeout)
		return ferr
	})
	return parts, n, saved, err
}

// replicate pushes a batch's partition sets, its replicate frames, to
// the peer at addr in one exchange over the pool and returns each set's
// outcome: nil once the peer acknowledged it, the refusal for a set the
// peer declined, and the connection's failure for every set left
// unanswered when a fresh connection fails too (a stale pooled one is
// redialed once, for the sets it left unanswered).
func (p *shufflePool) replicate(addr string, frames []message, timeout time.Duration) []error {
	errs := make([]error, len(frames))
	done := 0
	if err := p.withConn(addr, timeout, func(c *conn) error {
		n, err := replicateExchange(c, addr, frames[done:], timeout, errs[done:])
		done += n
		return err
	}); err != nil {
		for i := done; i < len(frames); i++ {
			errs[i] = err
		}
	}
	return errs
}
