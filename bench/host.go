package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Speed-of-light references, measured in the benchmark's own process so
// every derived MB/s layer metric has the machine's ceiling beside it.
// Buffers are 256 MB at -scale 1: at least 4x the last-level cache, so
// memcpy reads memory, not cache.
const hostBufBytes = 256 << 20

type hostRefs struct {
	memcpyMBps   float64
	loopbackMBps float64
	seqwriteMBps float64
	nproc        int
}

func measureHost(dir string, scale float64) (hostRefs, error) {
	n := int(float64(hostBufBytes) * scale)
	if n < 1<<20 {
		n = 1 << 20
	}
	src, dst := make([]byte, n), make([]byte, n)
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src) // fault dst in before timing
	h := hostRefs{nproc: runtime.NumCPU()}

	var walls []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		copy(dst, src)
		walls = append(walls, time.Since(t0).Seconds())
	}
	h.memcpyMBps = float64(n) / 1e6 / median(walls)

	wall, err := loopbackCopy(src)
	if err != nil {
		return h, err
	}
	h.loopbackMBps = float64(n) / 1e6 / wall

	wall, err = seqWrite(dir, src)
	if err != nil {
		return h, err
	}
	h.seqwriteMBps = float64(n) / 1e6 / wall
	return h, nil
}

// loopbackCopy times io.Copy of buf over one 127.0.0.1 connection, from
// the first byte written to the last byte read.
func loopbackCopy(buf []byte) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("host loopback: %w", err)
	}
	defer ln.Close()
	sent := make(chan error, 1)
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			sent <- err
			return
		}
		_, err = c.Write(buf)
		c.Close()
		sent <- err
	}()
	c, err := ln.Accept()
	if err != nil {
		<-sent
		return 0, fmt.Errorf("host loopback: %w", err)
	}
	defer c.Close()
	t0 := time.Now()
	n, err := io.Copy(io.Discard, c)
	wall := time.Since(t0).Seconds()
	if sendErr := <-sent; err == nil {
		err = sendErr
	}
	if err == nil && n != int64(len(buf)) {
		err = fmt.Errorf("read %d of %d bytes", n, len(buf))
	}
	if err != nil {
		return 0, fmt.Errorf("host loopback: %w", err)
	}
	return wall, nil
}

// seqWrite times a sequential write of buf in 1 MiB chunks into dir with
// no fsync: page-cache speed, which is also what the spill path pays.
func seqWrite(dir string, buf []byte) (float64, error) {
	path := filepath.Join(dir, "host-seqwrite.tmp")
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("host seqwrite: %w", err)
	}
	defer os.Remove(path)
	t0 := time.Now()
	for off := 0; off < len(buf); off += 1 << 20 {
		end := off + 1<<20
		if end > len(buf) {
			end = len(buf)
		}
		if _, err := f.Write(buf[off:end]); err != nil {
			f.Close()
			return 0, fmt.Errorf("host seqwrite: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("host seqwrite: %w", err)
	}
	return time.Since(t0).Seconds(), nil
}
