package netmr

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"ipso/internal/obs"
)

func countJob() Job {
	return Job{
		Name: "count",
		Map: func(record string, emit func(string, float64)) {
			for _, w := range strings.Fields(record) {
				emit(w, 1)
			}
		},
		Reduce: func(_ string, values []float64) float64 {
			total := 0.0
			for _, v := range values {
				total += v
			}
			return total
		},
	}
}

func startObsCluster(t *testing.T, cfg MasterConfig, workers int) (*Master, string) {
	t.Helper()
	reg, err := NewRegistry(countJob())
	if err != nil {
		t.Fatal(err)
	}
	master, err := NewMaster(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	for i := 0; i < workers; i++ {
		wreg, err := NewRegistry(countJob())
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorker(wreg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
	}
	if err := master.WaitForWorkers(workers, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	return master, addr
}

// TestMetricsEndpointEndToEnd is the acceptance check of the
// observability layer: run a real job on a live TCP master, scrape GET
// /metrics, and validate the exposition line by line as Prometheus text
// format with the expected netmr families present.
func TestMetricsEndpointEndToEnd(t *testing.T) {
	cfg := MasterConfig{Metrics: obs.NewRegistry()} // isolated registry: deterministic assertions
	master, _ := startObsCluster(t, cfg, 2)
	httpAddr, err := master.ServeObservability("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	input := make([]string, 100)
	for i := range input {
		input[i] = "a b c"
	}
	if _, _, err := master.Run(runCtx(t), "count", input, 8); err != nil {
		t.Fatal(err)
	}

	// admit counts a worker in (what WaitForWorkers reads) before its join
	// reaches the metrics, so give the last join a moment to land.
	body := httpGet(t, "http://"+httpAddr+"/metrics")
	samples := parseExposition(t, body)
	for deadline := time.Now().Add(5 * time.Second); (samples["netmr_workers_joined_total"] < 2 || samples["netmr_workers"] < 2) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		body = httpGet(t, "http://"+httpAddr+"/metrics")
		samples = parseExposition(t, body)
	}
	if got := samples["netmr_shards_dispatched_total"]; got < 8 {
		t.Errorf("shards dispatched = %g, want >= 8\n%s", got, body)
	}
	if got := samples["netmr_jobs_total"]; got != 1 {
		t.Errorf("jobs total = %g, want 1", got)
	}
	if got := samples["netmr_workers"]; got != 2 {
		t.Errorf("workers gauge = %g, want 2", got)
	}
	if got := samples["netmr_workers_joined_total"]; got != 2 {
		t.Errorf("workers joined = %g, want 2", got)
	}
	if got := samples["netmr_rpc_seconds_count"]; got < 8 {
		t.Errorf("rpc latency count = %g, want >= 8", got)
	}
	if got := samples["netmr_split_seconds_count"]; got != 1 {
		t.Errorf("split histogram count = %g, want 1", got)
	}

	health := httpGet(t, "http://"+httpAddr+"/healthz")
	if !strings.Contains(health, `"status":"ok"`) || !strings.Contains(health, `"workers":2`) {
		t.Errorf("healthz = %s", health)
	}
}

func TestPerWorkerStats(t *testing.T) {
	cfg := MasterConfig{Metrics: obs.NewRegistry()}
	master, _ := startObsCluster(t, cfg, 2)

	input := make([]string, 64)
	for i := range input {
		input[i] = "k v"
	}
	_, stats, err := master.Run(runCtx(t), "count", input, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.PerWorker) == 0 || len(stats.PerWorker) > 2 {
		t.Fatalf("per-worker stats = %+v, want 1-2 entries", stats.PerWorker)
	}
	totalShards, totalBusy := 0, time.Duration(0)
	for i, ws := range stats.PerWorker {
		if ws.ID == "" {
			t.Errorf("worker %d has empty ID", i)
		}
		if i > 0 && stats.PerWorker[i-1].ID >= ws.ID {
			t.Error("per-worker stats must be sorted by ID")
		}
		totalShards += ws.ShardsRun
		totalBusy += ws.Busy
	}
	if want := 16 + stats.ReduceTasks; totalShards != want {
		t.Errorf("per-worker shards sum to %d, want %d (16 shards plus %d reduce tasks)", totalShards, want, stats.ReduceTasks)
	}
	if totalBusy <= 0 {
		t.Error("cumulative busy time should be positive")
	}
}

func TestPerWorkerStatsAttributeFailures(t *testing.T) {
	cfg := MasterConfig{Metrics: obs.NewRegistry()}
	reg, err := NewRegistry(countJob())
	if err != nil {
		t.Fatal(err)
	}
	master, err := NewMaster(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	// One honest worker plus one that dies on its first task.
	wreg, err := NewRegistry(countJob())
	if err != nil {
		t.Fatal(err)
	}
	good, err := NewWorker(wreg)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Start(addr); err != nil {
		t.Fatal(err)
	}
	defer good.Stop()
	evil := startMisbehavingWorker(t, addr, "evil-worker")
	defer evil()
	// Both handles in the idle pool, not merely counted: a Run that starts
	// before the evil one is pooled can finish on the honest one alone.
	waitIdle(t, master, 2)

	input := make([]string, 32)
	for i := range input {
		input[i] = "a"
	}
	_, stats, err := master.Run(runCtx(t), "count", input, 8)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reassignments == 0 {
		t.Fatal("expected at least one reassignment")
	}
	var evilStats *WorkerStats
	for i := range stats.PerWorker {
		if stats.PerWorker[i].ID == "evil-worker" {
			evilStats = &stats.PerWorker[i]
		}
	}
	if evilStats == nil {
		t.Fatalf("failing worker missing from per-worker stats: %+v", stats.PerWorker)
	}
	if evilStats.Reassignments == 0 {
		t.Errorf("failure not attributed to the failing worker: %+v", evilStats)
	}
}

// startMisbehavingWorker joins the pool with a hello then hangs up on
// the first task frame, forcing a reassignment attributable to its ID.
func startMisbehavingWorker(t *testing.T, addr, id string) (stop func()) {
	t.Helper()
	c, _ := dialAsWorker(t, addr, id, "127.0.0.1:1")
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = c.recv(0) // first frame: die instead of answering
		c.close()
	}()
	return func() { c.close(); <-done }
}

func TestHeartbeatDropsDeadIdleWorker(t *testing.T) {
	cfg := MasterConfig{
		HeartbeatInterval: 20 * time.Millisecond,
		Metrics:           obs.NewRegistry(),
	}
	master, addr := startObsCluster(t, cfg, 1)

	// A fake worker that joins and then never answers the ping.
	c, _ := dialAsWorker(t, addr, "deaf", "127.0.0.1:1")
	if err := master.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	c.close() // connection dies while idle

	deadline := time.Now().Add(10 * time.Second)
	for master.WorkerCount() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("heartbeat never dropped the dead worker (count=%d)", master.WorkerCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The healthy worker must still be usable after surviving pings.
	if _, _, err := master.Run(runCtx(t), "count", []string{"a b"}, 1); err != nil {
		t.Fatal(err)
	}
	m := cfg.Metrics
	var okPings float64
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, `netmr_heartbeats_total{result="ok"}`) {
			fields := strings.Fields(line)
			okPings, _ = strconv.ParseFloat(fields[len(fields)-1], 64)
		}
	}
	if okPings == 0 {
		t.Errorf("no successful heartbeats counted:\n%s", sb.String())
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// parseExposition validates the Prometheus text format line by line and
// returns each sample keyed by bare metric name (labels stripped, values
// of a family summed) so assertions stay simple.
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	typed := map[string]bool{}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if parts[3] != "counter" && parts[3] != "gauge" && parts[3] != "histogram" {
				t.Fatalf("line %d: unknown metric type %q", ln+1, parts[3])
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		rest := ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name = line[:i]
			j := strings.LastIndexByte(line, '}')
			if j < i {
				t.Fatalf("line %d: unbalanced braces: %q", ln+1, line)
			}
			rest = strings.TrimSpace(line[j+1:])
		} else {
			fields := strings.Fields(line)
			if len(fields) != 2 {
				t.Fatalf("line %d: want `name value`: %q", ln+1, line)
			}
			name, rest = fields[0], fields[1]
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			t.Fatalf("line %d: bad sample value: %q", ln+1, line)
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if cut, ok := strings.CutSuffix(name, suffix); ok && typed[cut] {
				base = cut
				break
			}
		}
		if !typed[base] {
			t.Errorf("line %d: sample %q has no preceding TYPE", ln+1, name)
		}
		if !strings.HasSuffix(name, "_bucket") {
			samples[name] += v
		}
	}
	return samples
}
