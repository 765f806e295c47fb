package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"ipso/internal/netmr"
)

// The host this benchmark runs on changes speed under it: the same binary
// on the same input was seen to run 2.5x slower a few hours later, and
// 40 % slower for half a minute at a time. A yardstick is a fixed piece of
// work timed right beside every measurement, so a timing can be read in
// the yardsticks it took instead of in the host's seconds of that moment
// (harness.go: tick, slowdown; README.md: "Nominal-host seconds").
//
// The work is a miniature of what the runtime does with a job, written
// here so that no change to the repository moves it: the coordinator
// frames a fixed sample of the workload's records and sends one half to
// each of two peers over loopback TCP; a peer decodes its records, runs the
// job's Map over them with Combine into a map, and sends the encoded map
// back; the coordinator decodes and merges the two. It uses the CPU, the
// allocator, the memory system and the kernel's loopback path in roughly
// the mix the job does, with two threads busy, which is what makes the
// host's slow periods fall on both alike.
type yardstick struct {
	job   netmr.Job
	recs  []string
	ln    net.Listener
	conns [yardstickPeers]*bufio.ReadWriter
	raw   [yardstickPeers]net.Conn
}

const yardstickPeers = 2

func newYardstick(job netmr.Job, recs []string) (*yardstick, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("yardstick: %w", err)
	}
	y := &yardstick{job: job, recs: recs, ln: ln}
	for i := range y.conns {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			y.close()
			return nil, fmt.Errorf("yardstick: %w", err)
		}
		y.raw[i] = c
		y.conns[i] = bufio.NewReadWriter(bufio.NewReaderSize(c, 64<<10), bufio.NewWriterSize(c, 64<<10))
		peer, err := ln.Accept()
		if err != nil {
			y.close()
			return nil, fmt.Errorf("yardstick: %w", err)
		}
		go y.serve(peer)
	}
	return y, nil
}

// close ends the peers: each sees its connection close and returns.
func (y *yardstick) close() {
	for _, c := range y.raw {
		if c != nil {
			c.Close()
		}
	}
	y.ln.Close()
}

func writeStrings(w *bufio.Writer, ss []string) error {
	var b [binary.MaxVarintLen64]byte
	w.Write(b[:binary.PutUvarint(b[:], uint64(len(ss)))])
	for _, s := range ss {
		w.Write(b[:binary.PutUvarint(b[:], uint64(len(s)))])
		w.WriteString(s)
	}
	return w.Flush()
}

func readString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// serve is one peer: records in, combined map out, until the connection
// closes.
func (y *yardstick) serve(c net.Conn) {
	defer c.Close()
	r, w := bufio.NewReaderSize(c, 64<<10), bufio.NewWriterSize(c, 64<<10)
	var b [binary.MaxVarintLen64]byte
	for {
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return
		}
		acc := map[string]float64{}
		emit := func(k string, v float64) {
			if old, ok := acc[k]; ok {
				acc[k] = y.job.Combine(old, v)
			} else {
				acc[k] = v
			}
		}
		for i := uint64(0); i < n; i++ {
			rec, err := readString(r)
			if err != nil {
				return
			}
			y.job.Map(rec, emit)
		}
		w.Write(b[:binary.PutUvarint(b[:], uint64(len(acc)))])
		for k, v := range acc {
			w.Write(b[:binary.PutUvarint(b[:], uint64(len(k)))])
			w.WriteString(k)
			binary.LittleEndian.PutUint64(b[:8], math.Float64bits(v))
			w.Write(b[:8])
		}
		if w.Flush() != nil {
			return
		}
	}
}

// run does the fixed work once and returns how long it took.
func (y *yardstick) run() (float64, error) {
	t0 := time.Now()
	if _, err := y.exec(); err != nil {
		return 0, fmt.Errorf("yardstick: %w", err)
	}
	return time.Since(t0).Seconds(), nil
}

// exec is the work itself; it returns the job's result over y.recs.
func (y *yardstick) exec() (map[string]float64, error) {
	errs := make(chan error, yardstickPeers)
	parts := make([]map[string]float64, yardstickPeers)
	for i := range y.conns {
		go func(i int) {
			lo, hi := i*len(y.recs)/yardstickPeers, (i+1)*len(y.recs)/yardstickPeers
			rw := y.conns[i]
			if err := writeStrings(rw.Writer, y.recs[lo:hi]); err != nil {
				errs <- err
				return
			}
			n, err := binary.ReadUvarint(rw.Reader)
			if err != nil {
				errs <- err
				return
			}
			m := make(map[string]float64, n)
			var b [8]byte
			for j := uint64(0); j < n; j++ {
				k, err := readString(rw.Reader)
				if err != nil {
					errs <- err
					return
				}
				if _, err := io.ReadFull(rw.Reader, b[:]); err != nil {
					errs <- err
					return
				}
				m[k] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
			}
			parts[i] = m
			errs <- nil
		}(i)
	}
	var first error
	for range y.conns {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return nil, first
	}
	out := parts[0]
	for _, p := range parts[1:] {
		for k, v := range p {
			if old, ok := out[k]; ok {
				out[k] = y.job.Combine(old, v)
			} else {
				out[k] = v
			}
		}
	}
	return out, nil
}
