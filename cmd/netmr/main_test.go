package main

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"ipso/internal/netmr"
)

func TestRunValidation(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err == nil {
		t.Error("missing role should error")
	}
	if err := run([]string{"-role", "nope"}, &sb); err == nil {
		t.Error("unknown role should error")
	}
}

func TestBuiltinJobsValid(t *testing.T) {
	if _, err := netmr.NewRegistry(builtinJobs()...); err != nil {
		t.Fatalf("built-in jobs invalid: %v", err)
	}
}

func TestRunMasterCLIPath(t *testing.T) {
	// Reserve an ephemeral port, release it, and race the CLI master and
	// an in-process worker onto it (the tiny reuse window is acceptable
	// in tests).
	addr := reservePort(t)
	workerReady := make(chan error, 1)
	go func() {
		reg, err := netmr.NewRegistry(builtinJobs()...)
		if err != nil {
			workerReady <- err
			return
		}
		w, err := netmr.NewWorker(reg)
		if err != nil {
			workerReady <- err
			return
		}
		// Retry until the master is listening.
		deadline := time.Now().Add(5 * time.Second)
		for {
			if err := w.Start(addr); err == nil {
				workerReady <- nil
				return
			} else if time.Now().After(deadline) {
				workerReady <- err
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	var sb strings.Builder
	err := run([]string{
		"-role", "master", "-addr", addr,
		"-job", "wordcount", "-lines", "200", "-shards", "4", "-workers", "1",
	}, &sb)
	if err != nil {
		t.Fatalf("master run: %v (worker: %v)", err, <-workerReady)
	}
	if werr := <-workerReady; werr != nil {
		t.Fatalf("worker: %v", werr)
	}
	out := sb.String()
	for _, want := range []string{"master listening", "keys", "split"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestMasterEndToEndWithInProcessWorker(t *testing.T) {
	// Start a worker in-process against a fixed local port, then drive
	// the master code path exactly as the CLI would.
	registry, err := netmr.NewRegistry(builtinJobs()...)
	if err != nil {
		t.Fatal(err)
	}
	master, err := netmr.NewMaster(registry, netmr.MasterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	wreg, err := netmr.NewRegistry(builtinJobs()...)
	if err != nil {
		t.Fatal(err)
	}
	w, err := netmr.NewWorker(wreg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Start(addr); err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	if err := master.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	for _, job := range []string{"wordcount", "wordlen"} {
		res, stats, err := master.Run(context.Background(), job, []string{"alpha beta", "gamma alpha"}, 2)
		if err != nil {
			t.Fatalf("%s: %v", job, err)
		}
		if len(res) == 0 || stats.Shards != 2 {
			t.Errorf("%s: unexpected result %v stats %+v", job, res, stats)
		}
	}
}

func TestBuildInjector(t *testing.T) {
	if in, err := buildInjector(chaosConfigArgs{seed: 9, grace: 1}); err != nil || in != nil {
		t.Errorf("all-zero knobs should yield nil injector, got %v, %v", in, err)
	}
	if _, err := buildInjector(chaosConfigArgs{latency: "pareto:oops"}); err == nil {
		t.Error("bad -chaos-latency spec should error")
	}
	if _, err := buildInjector(chaosConfigArgs{taskLatency: "warp:1ms"}); err == nil {
		t.Error("bad -chaos-task-latency spec should error")
	}
	in, err := buildInjector(chaosConfigArgs{seed: 9, drop: 0.3, latency: "fixed:2ms", grace: 1})
	if err != nil || !in.Enabled() {
		t.Fatalf("expected enabled injector, got %v, %v", in, err)
	}
	if in.Seed() != 9 {
		t.Errorf("injector seed = %d, want 9", in.Seed())
	}
}

// TestRunMasterDegradedPrintsPartialStats kills the only worker mid-job
// (injected crash on its first task) and checks the master still reports
// everything it learned — the degradation message, completion counts,
// and the per-worker breakdown — before exiting with the error.
func TestRunMasterDegradedPrintsPartialStats(t *testing.T) {
	addr := reservePort(t)
	workerReady := make(chan error, 1)
	go func() {
		reg, err := netmr.NewRegistry(builtinJobs()...)
		if err != nil {
			workerReady <- err
			return
		}
		in, err := buildInjector(chaosConfigArgs{seed: 3, crash: 1, grace: 1})
		if err != nil {
			workerReady <- err
			return
		}
		w, err := netmr.NewWorker(reg, netmr.WithChaos(in))
		if err != nil {
			workerReady <- err
			return
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			if err := w.Start(addr); err == nil {
				workerReady <- nil
				return
			} else if time.Now().After(deadline) {
				workerReady <- err
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	var sb strings.Builder
	err := run([]string{
		"-role", "master", "-addr", addr,
		"-job", "wordcount", "-lines", "100", "-shards", "4", "-workers", "1",
		"-retrybase", "1ms",
	}, &sb)
	if werr := <-workerReady; werr != nil {
		t.Fatalf("worker: %v", werr)
	}
	if err == nil {
		t.Fatalf("master should fail once its only worker crashed; output:\n%s", sb.String())
	}
	out := sb.String()
	for _, want := range []string{"did not complete", "degraded:", "of 4 shards completed", "worker "} {
		if !strings.Contains(out, want) {
			t.Errorf("degraded output missing %q:\n%s", want, out)
		}
	}
}
