package netmr

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"ipso/internal/chaos"
	"ipso/internal/obs"
)

// startTracedCluster brings up a traced master plus n plain workers.
func startTracedCluster(t *testing.T, n int, cfg MasterConfig) *Master {
	t.Helper()
	cfg.Trace = true
	if cfg.TaskTimeout == 0 {
		cfg.TaskTimeout = 10 * time.Second
	}
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = 30 * time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	master, err := NewMaster(mustRegistry(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	for i := 0; i < n; i++ {
		w, err := NewWorker(mustRegistry(t))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
	}
	if err := master.WaitForWorkers(n, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return master
}

// TestTracedRunTimeline: a clean traced run yields a sealed trace with
// one ok launch per shard and per reduce task, master split/reduce/merge
// phases, worker sub-phase
// spans nested inside every launch window, and a breakdown whose phases
// are consistent with the run's stats.
func TestTracedRunTimeline(t *testing.T) {
	master := startTracedCluster(t, 2, MasterConfig{Reducers: 2})
	lines := testLines(t, 400)
	_, stats, err := master.Run(context.Background(), "wordcount", lines, 6)
	if err != nil {
		t.Fatal(err)
	}
	trc := master.LastTrace()
	if trc == nil {
		t.Fatal("traced master produced no trace")
	}
	if open := trc.OpenLaunches(); open != 0 {
		t.Fatalf("OpenLaunches = %d after Run returned", open)
	}
	outcomes := trc.Outcomes()
	if want := 6 + stats.ReduceTasks; outcomes[outcomeOK] != want {
		t.Fatalf("ok launches = %d, want %d (outcomes %v)", outcomes[outcomeOK], want, outcomes)
	}

	phases := map[string]int{}
	subsByLaunch := map[int]map[string]int{}
	launches := map[int]TraceSpan{}
	for _, sp := range trc.Spans() {
		if sp.End < sp.Start {
			t.Fatalf("span ends before it starts: %+v", sp)
		}
		switch {
		case sp.Launch < 0:
			phases[sp.Phase]++
		case sp.Phase == "task":
			launches[sp.Launch] = sp
		case sp.Phase == "rtask":
		default:
			if subsByLaunch[sp.Launch] == nil {
				subsByLaunch[sp.Launch] = map[string]int{}
			}
			subsByLaunch[sp.Launch][sp.Phase]++
		}
	}
	if phases["split"] != 1 || phases["reduce"] != 1 || phases["merge"] != 1 {
		t.Fatalf("master phases = %v, want one split, one reduce and one merge", phases)
	}
	for id, task := range launches {
		subs := subsByLaunch[id]
		for _, want := range []string{spanMap, spanEncode} {
			if subs[want] == 0 {
				t.Fatalf("launch %d has no %s span (subs %v)", id, want, subs)
			}
		}
		// Worker spans are re-based into the launch window.
		for _, sp := range trc.Spans() {
			if sp.Launch == id && sp.Phase != "task" {
				if sp.Start < task.Start-1e-9 || sp.End > task.End+1e-9 {
					t.Fatalf("sub-span %+v escapes launch window [%v, %v]", sp, task.Start, task.End)
				}
			}
		}
	}

	b := trc.Breakdown(stats)
	if b.Wp <= 0 || b.MaxTask <= 0 {
		t.Fatalf("breakdown attributes no compute: %+v", b)
	}
	if b.MaxTask > b.Wp+1e-9 {
		t.Fatalf("MaxTask %v exceeds total Wp %v", b.MaxTask, b.Wp)
	}
	if b.TotalWall <= 0 || b.Wo < 0 || b.Ws < 0 {
		t.Fatalf("inconsistent breakdown: %+v", b)
	}
	if b.Workers != stats.Workers {
		t.Fatalf("breakdown workers = %d, want %d", b.Workers, stats.Workers)
	}
}

// TestTraceJSONRoundTrip: WriteJSON → ReadTraceJSON preserves the
// timeline, DerivedStats reconstructs the master walls from the spans,
// and the offline report renders.
func TestTraceJSONRoundTrip(t *testing.T) {
	master := startTracedCluster(t, 1, MasterConfig{})
	lines := testLines(t, 200)
	_, stats, err := master.Run(context.Background(), "wordcount", lines, 4)
	if err != nil {
		t.Fatal(err)
	}
	trc := master.LastTrace()
	var buf bytes.Buffer
	if err := trc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Every JSONL line is one complete span object with the trace ID.
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var doc map[string]any
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if doc["trace"] != trc.ID {
			t.Fatalf("line carries trace %v, want %v", doc["trace"], trc.ID)
		}
	}

	back, err := ReadTraceJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Spans(), trc.Spans()) {
		t.Fatal("spans diverged across the JSON round trip")
	}
	if back.ID != trc.ID || back.Job != trc.Job {
		t.Fatalf("identity diverged: got (%s, %s), want (%s, %s)", back.ID, back.Job, trc.ID, trc.Job)
	}

	ds := back.DerivedStats()
	if ds.Workers != stats.Workers {
		t.Fatalf("derived workers = %d, want %d", ds.Workers, stats.Workers)
	}
	if ds.SplitWall != stats.SplitWall || ds.ReduceWall != stats.ReduceWall || ds.MergeWall != stats.MergeWall {
		t.Fatalf("derived walls (split %v, reduce %v, merge %v), live (%v, %v, %v)",
			ds.SplitWall, ds.ReduceWall, ds.MergeWall, stats.SplitWall, stats.ReduceWall, stats.MergeWall)
	}
	var report bytes.Buffer
	if err := back.WriteReport(&report, ds); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"phase accounting", "Wo attribution", "launch"} {
		if !strings.Contains(report.String(), want) {
			t.Fatalf("offline report missing %q:\n%s", want, report.String())
		}
	}

	// Corrupt dumps are rejected, not mis-read.
	if _, err := ReadTraceJSON(strings.NewReader(`{"phase":"task","start":2,"end":1}`)); err == nil {
		t.Fatal("span with end < start must be rejected")
	}
	if _, err := ReadTraceJSON(strings.NewReader(`not json`)); err == nil {
		t.Fatal("non-JSON dump must be rejected")
	}
}

// TestTraceLifecycleUnderChaos is the span-lifecycle audit: a traced
// job surviving dropped writes, a crashing worker and manufactured
// stragglers (retries, speculation, duplicates) must seal its trace
// with zero open launches, every task span carrying a terminal outcome,
// and the retry/speculation waste visible as non-ok launches. The
// /metrics scrape of the chaos-soaked master must also survive the
// strict exposition parser.
func TestTraceLifecycleUnderChaos(t *testing.T) {
	reg := obs.NewRegistry()
	master, err := NewMaster(mustRegistry(t), MasterConfig{
		TaskTimeout:         5 * time.Second,
		JobTimeout:          60 * time.Second,
		MaxAttempts:         10,
		RetryBaseDelay:      2 * time.Millisecond,
		RetryMaxDelay:       50 * time.Millisecond,
		RetrySeed:           1,
		SpeculationInterval: 25 * time.Millisecond,
		Metrics:             reg,
		Trace:               true,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := master.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(master.Close)
	obsAddr, err := master.ServeObservability("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	startWorker := func(cfg chaos.Config) {
		t.Helper()
		w, err := NewWorker(mustRegistry(t), WithChaos(chaos.New(cfg)))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Start(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
	}
	n := 0
	for i := 0; i < 5; i++ {
		startWorker(chaos.Config{Seed: int64(100 + i), DropRate: 0.3, GraceOps: 1})
		n++
	}
	startWorker(chaos.Config{Seed: 200, CrashRate: 1})
	n++
	for i := 0; i < 2; i++ {
		startWorker(chaos.Config{Seed: int64(300 + i), TaskLatency: chaos.Dist{Kind: chaos.DistFixed, Base: 300 * time.Millisecond}})
		n++
	}
	if err := master.WaitForWorkers(n, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	lines := testLines(t, 160)
	_, stats, err := master.Run(context.Background(), "wordcount", lines, 16)
	if err != nil {
		t.Fatalf("job did not survive the gauntlet: %v", err)
	}
	if stats.Reassignments == 0 || stats.Speculations == 0 {
		t.Fatalf("gauntlet produced no retries/speculation (stats %+v) — audit has nothing to check", stats)
	}

	trc := master.LastTrace()
	if trc == nil {
		t.Fatal("traced gauntlet produced no trace")
	}
	if open := trc.OpenLaunches(); open != 0 {
		t.Fatalf("%d launches left open after the gauntlet", open)
	}
	outcomes := trc.Outcomes()
	launches := 0
	for o, c := range outcomes {
		switch o {
		case outcomeOK, outcomeFailed, outcomeDuplicate, outcomeCancelled:
			launches += c
		default:
			t.Fatalf("non-terminal outcome %q in sealed trace", o)
		}
	}
	// A map output lost with its replica is run again: its re-run wins
	// too, and is stored like the first.
	winners := stats.MapOutputsStored + stats.ReduceTasks
	if stats.Completed != 16 || outcomes[outcomeOK] != winners {
		t.Fatalf("Completed = %d, ok launches = %d, want 16 and %d (one winner per stored map output and reduce task); outcomes %v", stats.Completed, outcomes[outcomeOK], winners, outcomes)
	}
	if launches == winners {
		t.Fatalf("only winning launches recorded; retries/speculation invisible (outcomes %v)", outcomes)
	}
	if got := outcomes[outcomeFailed] + outcomes[outcomeDuplicate] + outcomes[outcomeCancelled]; got == 0 {
		t.Fatalf("no failed/duplicate/cancelled launches despite %d reassignments", stats.Reassignments)
	}

	// The JSONL dump must contain no open spans: every task line has a
	// terminal outcome and a closed window.
	var buf bytes.Buffer
	if err := trc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var doc struct {
			Phase   string  `json:"phase"`
			Outcome string  `json:"outcome"`
			Start   float64 `json:"start"`
			End     float64 `json:"end"`
		}
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Phase == "task" && doc.Outcome == "" {
			t.Fatalf("open task span in dump: %s", line)
		}
		if doc.End < doc.Start {
			t.Fatalf("unterminated span window in dump: %s", line)
		}
	}

	// Wasted work must surface in the breakdown.
	if b := trc.Breakdown(stats); b.Wasted <= 0 {
		t.Fatalf("chaos run attributed no wasted launch time: %+v", b)
	}

	// Strict-parse the chaos-soaked /metrics scrape: label escaping,
	// family ordering, histogram bucket invariants.
	resp, err := http.Get("http://" + obsAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("chaos-soaked /metrics failed strict parse: %v", err)
	}
	byName := map[string]bool{}
	for _, f := range fams {
		byName[f.Name] = true
	}
	for _, want := range []string{"netmr_retries_total", "netmr_speculations_total", "netmr_rpc_seconds"} {
		if !byName[want] {
			t.Fatalf("family %s missing from scrape", want)
		}
	}
}

// TestTraceCancellationClosesLaunches: cancelling a job mid-flight must
// seal the trace and close the in-flight launches as cancelled — no
// span leaks on the abandon path.
func TestTraceCancellationClosesLaunches(t *testing.T) {
	master := startSleeperCluster(t, MasterConfig{
		TaskTimeout: 10 * time.Second,
		JobTimeout:  30 * time.Second,
		Trace:       true,
	}, 2)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	_, _, err := master.Run(ctx, "sleeper", []string{"fast:5", "slow:600"}, 2)
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	trc := master.LastTrace()
	if trc == nil {
		t.Fatal("cancelled run produced no trace")
	}
	if open := trc.OpenLaunches(); open != 0 {
		t.Fatalf("%d launches left open after cancellation", open)
	}
	outcomes := trc.Outcomes()
	if outcomes[outcomeCancelled] == 0 {
		t.Fatalf("no cancelled launches in trace (outcomes %v)", outcomes)
	}
	// The sealed trace rejects further launches.
	if id := trc.openLaunch("task", 0, 0, "late"); id != -1 {
		t.Fatalf("sealed trace accepted launch %d", id)
	}
}

// TestHealthzDegradedOnEvictionAndRecovery: /healthz must flip to 503
// "degraded" when a run needed reassignments (a worker died mid-job)
// and return to 200 "ok" after the next clean run.
func TestHealthzDegradedOnEvictionAndRecovery(t *testing.T) {
	master := startTracedCluster(t, 2, MasterConfig{
		MaxAttempts:    10,
		RetryBaseDelay: 2 * time.Millisecond,
		RetryMaxDelay:  20 * time.Millisecond,
		RetrySeed:      1,
	})
	obsAddr, err := master.ServeObservability("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	health := func() (int, map[string]any) {
		t.Helper()
		resp, err := http.Get("http://" + obsAddr + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, doc
	}

	if code, doc := health(); code != http.StatusOK || doc["status"] != "ok" {
		t.Fatalf("fresh master health = %d %v, want 200 ok", code, doc)
	}

	// A crashing worker joins; its failures force reassignments.
	crasher, err := NewWorker(mustRegistry(t), WithChaos(chaos.New(chaos.Config{Seed: 7, CrashRate: 1})))
	if err != nil {
		t.Fatal(err)
	}
	if err := crasher.Start(mustListenAddr(t, master)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(crasher.Stop)
	if err := master.WaitForWorkers(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	lines := testLines(t, 200)
	if _, stats, err := master.Run(context.Background(), "wordcount", lines, 8); err != nil {
		t.Fatal(err)
	} else if stats.Reassignments == 0 {
		t.Skip("crasher drew no shards; nothing to degrade on")
	}

	code, doc := health()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("health after reassigned run = %d %v, want 503", code, doc)
	}
	if doc["status"] != "degraded" {
		t.Fatalf("status = %v, want degraded", doc["status"])
	}

	// A clean run on the two healthy workers recovers the status.
	if _, stats, err := master.Run(context.Background(), "wordcount", lines, 8); err != nil {
		t.Fatal(err)
	} else if stats.Reassignments != 0 {
		t.Skipf("recovery run still degraded (stats %+v)", stats)
	}
	if code, doc := health(); code != http.StatusOK || doc["status"] != "ok" {
		t.Fatalf("health after clean run = %d %v, want 200 ok", code, doc)
	}
}

// mustListenAddr returns the master's bound address.
func mustListenAddr(t *testing.T, m *Master) string {
	t.Helper()
	if m.ln == nil {
		t.Fatal("master is not listening")
	}
	return m.ln.Addr().String()
}
