package netmr

import (
	"ipso/internal/obs"
)

// masterMetrics are the master-side instruments, registered on one obs
// registry (the process default unless MasterConfig.Metrics overrides
// it). Families are get-or-create, so several masters in one process
// share counters — the per-run view lives in Stats.
type masterMetrics struct {
	registry       *obs.Registry
	workersJoined  *obs.Counter
	workersLost    *obs.Counter
	workers        *obs.Gauge
	shards         *obs.Counter
	reassignments  *obs.CounterVec
	heartbeats     *obs.CounterVec
	jobs           *obs.CounterVec
	rpcSeconds     *obs.HistogramVec
	splitSeconds   *obs.Histogram
	mergeSeconds   *obs.Histogram
	reduceTasks    *obs.CounterVec
	reduceSeconds  *obs.Histogram
	shuffleBytes   *obs.Counter
	mapOutputs     *obs.CounterVec
	retries        *obs.Counter
	backoffSeconds *obs.Histogram
	speculations   *obs.Counter
	specWins       *obs.Counter
	duplicates     *obs.Counter
	cancellations  *obs.Counter

	spillRuns       *obs.Counter
	spilledBytes    *obs.Counter
	replicaFetches  *obs.Counter
	mapReexecs      *obs.Counter
	recoverySeconds *obs.Histogram

	earlyLaunches *obs.Counter
	earlyAborts   *obs.Counter
	failovers     *obs.Counter
}

func newMasterMetrics(r *obs.Registry) *masterMetrics {
	if r == nil {
		r = obs.Default()
	}
	return &masterMetrics{
		registry: r,
		workersJoined: r.Counter("netmr_workers_joined_total",
			"Workers admitted to the master's pool."),
		workersLost: r.Counter("netmr_workers_lost_total",
			"Workers dropped after an RPC or heartbeat failure."),
		workers: r.Gauge("netmr_workers",
			"Workers currently admitted and not lost."),
		shards: r.Counter("netmr_shards_dispatched_total",
			"Shard executions dispatched to workers (including retries)."),
		reassignments: r.CounterVec("netmr_shard_reassignments_total",
			"Shards re-queued after a worker failed, by the worker that failed.", "worker"),
		heartbeats: r.CounterVec("netmr_heartbeats_total",
			"Idle-worker heartbeat probes by result (ok or failed).", "result"),
		jobs: r.CounterVec("netmr_jobs_total",
			"Jobs run by final status (ok or error).", "status"),
		rpcSeconds: r.HistogramVec("netmr_rpc_seconds",
			"Shard dispatch round-trip latency by worker.", nil, "worker"),
		splitSeconds: r.Histogram("netmr_split_seconds",
			"Split-phase wall time (scatter + parallel map, barrier to barrier).", nil),
		mergeSeconds: r.Histogram("netmr_merge_seconds",
			"Master-side merge window wall time (last reduce result to the output handed back).", nil),
		reduceTasks: r.CounterVec("netmr_reduce_tasks_total",
			"Worker-side reduce task launches by outcome (ok or failed).", "status"),
		reduceSeconds: r.Histogram("netmr_reduce_seconds",
			"Reduce phase wall time (split barrier to last reduce result).", nil),
		shuffleBytes: r.Counter("netmr_shuffle_bytes_total",
			"Intermediate bytes reducers fetched worker-to-worker over a socket."),
		mapOutputs: r.CounterVec("netmr_map_outputs_total",
			"Winning map outputs by placement (stored: persisted worker-side, the one placement).", "mode"),
		retries: r.Counter("netmr_retries_total",
			"Shards requeued with backoff after a launch failure."),
		backoffSeconds: r.Histogram("netmr_retry_backoff_seconds",
			"Backoff delays applied before shard retries.", nil),
		speculations: r.Counter("netmr_speculations_total",
			"Speculative clones launched for straggling shards."),
		specWins: r.Counter("netmr_speculative_wins_total",
			"Shards whose first finished launch was a speculative clone."),
		duplicates: r.Counter("netmr_duplicate_results_total",
			"Late sibling results discarded after a shard already completed."),
		cancellations: r.Counter("netmr_cancelled_launches_total",
			"In-flight launches abandoned at job completion or cancellation."),
		spillRuns: r.Counter("netmr_spill_runs_total",
			"Sorted spill runs workers flushed under memory pressure."),
		spilledBytes: r.Counter("netmr_spilled_bytes_total",
			"Bytes of intermediate state workers wrote to spill files."),
		replicaFetches: r.Counter("netmr_replica_fetches_total",
			"Fetch routings redirected to a replica after the primary holder died."),
		mapReexecs: r.Counter("netmr_map_reexecutions_total",
			"Map tasks re-executed from lineage after both the primary and its replica were lost."),
		recoverySeconds: r.Histogram("netmr_recovery_seconds",
			"Wall time from first detected intermediate loss to reduce-phase completion.", nil),
		earlyLaunches: r.Counter("netmr_early_reduce_launches_total",
			"Reduce tasks dispatched before the map barrier (pipelined shuffle)."),
		earlyAborts: r.Counter("netmr_early_reduce_aborts_total",
			"Reduce launches called back before the barrier to free their worker for a map task."),
		failovers: r.Counter("netmr_reduce_failovers_total",
			"Reducer fetches rerouted worker-locally to a replica holder."),
	}
}

// Worker-side instruments, on the process default registry.
var (
	workerTasks = obs.Default().CounterVec("netmr_worker_tasks_total",
		"Tasks executed by this process's workers, by result (ok, unknown_job, fetch_failed, or crashed).", "result")
	workerTaskSeconds = obs.Default().Histogram("netmr_worker_task_seconds",
		"Map+combine execution time of one shard on a worker.", nil)
	workerReduceSeconds = obs.Default().Histogram("netmr_worker_reduce_seconds",
		"Fetch+fold execution time of one reduce task on a worker.", nil)
	workerFetches = obs.Default().CounterVec("netmr_worker_fetches_total",
		"Shuffle locations gathered by this process's reducers, by result (ok or failed over a socket, local from the reducer's own store).", "result")
	workerFetchSeconds = obs.Default().Histogram("netmr_worker_fetch_seconds",
		"Round-trip latency of one peer shuffle fetch.", nil)
	workerShuffleBytes = obs.Default().Counter("netmr_worker_shuffle_bytes_total",
		"Intermediate bytes this process's reducers fetched from peers: bytes that crossed a socket, local reads excluded.")
	workerServes = obs.Default().CounterVec("netmr_worker_fetch_serves_total",
		"Shuffle fetch requests served by this process's workers, by result (ok or rejected).", "result")
	workerPings = obs.Default().Counter("netmr_worker_pings_total",
		"Heartbeat pings answered by this process's workers.")
	workerSpillRuns = obs.Default().Counter("netmr_worker_spill_runs_total",
		"Sorted spill runs this process's workers flushed under memory pressure.")
	workerSpilledBytes = obs.Default().Counter("netmr_worker_spilled_bytes_total",
		"Bytes this process's workers wrote to spill files.")
	workerSpillErrors = obs.Default().Counter("netmr_worker_spill_errors_total",
		"Spill attempts that failed (the data stayed resident).")
	workerReplications = obs.Default().CounterVec("netmr_worker_replications_total",
		"Partition-set replications this process's workers pushed to peers, by result (ok or failed).", "result")
	workerReplicasStored = obs.Default().Counter("netmr_worker_replicas_stored_total",
		"Peer partition sets this process's workers accepted as replicas.")
	workerPoolOps = obs.Default().CounterVec("netmr_worker_shuffle_pool_total",
		"Shuffle connection pool operations, by kind (hit, miss, or evict).", "kind")
	workerFailovers = obs.Default().Counter("netmr_worker_fetch_failovers_total",
		"Reducer fetches this process's workers rerouted to a replica holder.")
)
