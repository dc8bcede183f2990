package main

// metricDef is one row of BENCHMARK.json. The tables below are the source
// the program reports from; TestBenchmarkJSONMatches holds the JSON file
// to them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the numbers a user of the system sees; every workload
// reports every one of them from the untraced run. An "op" is one whole
// pipeline run (figures-90d, archive-build-disk, replica-import-disk) or
// one request (rpc-*). Each metric keeps the definition issue 11 gave the
// metric it folds: the median rep for a whole-pipeline workload (wall_s);
// the median latency of all requests and answered ÷ seconds for an rpc
// workload (lat_p50_ms, req_per_s).
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"op_ms", "ms", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"cpu_ms_per_op", "ms", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.25},
	{"disk_mb", "MB", lower, 0.10},
}

// perLayer are the numbers of single layers, from the traced run. A
// workload reports 0 for a layer it does not exercise or probe; README.md
// says which workload measures which.
var perLayer = []metricDef{
	// trace bookkeeping
	{Name: "trace.overhead_pct", Unit: "%", Better: lower},
	{Name: "trace.self_sum_pct", Unit: "%", Better: higher},
	{Name: "trace.spans", Unit: "count", Better: lower},
	// the ops of the traced run, beside the end-to-end op_ms
	{Name: "op.median_ms", Unit: "ms", Better: lower},
	{Name: "op.slowest_ms", Unit: "ms", Better: lower},
	// Go runtime, over the measured section
	{Name: "go.allocs_per_op", Unit: "count", Better: lower},
	{Name: "go.alloc_mb_per_op", Unit: "MB", Better: lower},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: lower},

	// sim (fast ledger): figures-90d
	{Name: "sim.new_ms", Unit: "ms", Better: lower},
	{Name: "sim.run_ms", Unit: "ms", Better: lower},
	{Name: "sim.run_p1_ms", Unit: "ms", Better: lower},
	{Name: "sim.parallel_speedup", Unit: "ratio", Better: higher},
	{Name: "sim.day_p50_us", Unit: "us", Better: lower},
	{Name: "sim.day_p95_us", Unit: "us", Better: lower},
	{Name: "sim.blocks", Unit: "count", Better: lower},
	{Name: "sim.txs", Unit: "count", Better: lower},
	{Name: "sim.ns_per_block", Unit: "ns", Better: lower},
	{Name: "sim.allocs_per_run", Unit: "count", Better: lower},
	{Name: "sim.alloc_mb_per_run", Unit: "MB", Better: lower},
	// analysis / live / export / façade: figures-90d
	{Name: "analysis.collect_ms", Unit: "ms", Better: lower},
	{Name: "live.analyze_ms", Unit: "ms", Better: lower},
	{Name: "analysis.figures_ms", Unit: "ms", Better: lower},
	{Name: "export.record_ms", Unit: "ms", Better: lower},
	{Name: "export.write_csv_ms", Unit: "ms", Better: lower},
	{Name: "export.csv_bytes", Unit: "count", Better: lower},
	{Name: "forkwatch.render_figures_ms", Unit: "ms", Better: lower},

	// sim (full ledger): archive-build-disk
	{Name: "sim.run_full_ms", Unit: "ms", Better: lower},
	{Name: "sim.run_full_mem_ms", Unit: "ms", Better: lower},
	{Name: "sim.full_blocks", Unit: "count", Better: lower},
	{Name: "sim.full_txs", Unit: "count", Better: lower},
	{Name: "sim.ns_per_tx", Unit: "ns", Better: lower},
	{Name: "sim.full_allocs_per_tx", Unit: "count", Better: lower},
	{Name: "serve.mount_ms", Unit: "ms", Better: lower},
	{Name: "serve.close_ms", Unit: "ms", Better: lower},
	{Name: "db.build_writes_per_block", Unit: "count", Better: lower},
	{Name: "db.build_reads_per_block", Unit: "count", Better: lower},
	{Name: "diskdb.build_cost_ms", Unit: "ms", Better: lower},
	{Name: "diskdb.bytes_per_block", Unit: "count", Better: lower},
	{Name: "diskdb.write_amp", Unit: "ratio", Better: lower},
	{Name: "diskdb.segments", Unit: "count", Better: lower},
	// unit costs of the layers under the write path: archive-build-disk
	{Name: "chain.encode_us_per_block", Unit: "us", Better: lower},
	{Name: "chain.export_bytes", Unit: "count", Better: lower},
	{Name: "trie.update_commit_us_per_key", Unit: "us", Better: lower},
	{Name: "trie.get_us", Unit: "us", Better: lower},
	{Name: "trie.nodes_per_commit", Unit: "count", Better: lower},
	{Name: "state.commit_us_per_account", Unit: "us", Better: lower},
	{Name: "rlp.decode_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "keccak.mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "db.mem_batch_us_per_op", Unit: "us", Better: lower},
	{Name: "diskdb.batch_sync_us", Unit: "us", Better: lower},
	{Name: "diskdb.get_us", Unit: "us", Better: lower},

	// chain import: replica-import-disk
	{Name: "chain.import_ms", Unit: "ms", Better: lower},
	{Name: "chain.import_mem_ms", Unit: "ms", Better: lower},
	{Name: "chain.import_w1_ms", Unit: "ms", Better: lower},
	{Name: "chain.import_worker_speedup", Unit: "ratio", Better: higher},
	{Name: "chain.import_blocks_per_s", Unit: "1/s", Better: higher},
	{Name: "chain.import_txs_per_s", Unit: "1/s", Better: higher},
	{Name: "chain.new_ms", Unit: "ms", Better: lower},
	{Name: "chain.reopen_ms", Unit: "ms", Better: lower},
	{Name: "chain.decode_us_per_block", Unit: "us", Better: lower},
	{Name: "chain.precache_us_per_block", Unit: "us", Better: lower},
	{Name: "db.import_writes_per_block", Unit: "count", Better: lower},
	{Name: "db.import_reads_per_block", Unit: "count", Better: lower},
	{Name: "diskdb.import_cost_ms", Unit: "ms", Better: lower},
	{Name: "diskdb.open_close_ms", Unit: "ms", Better: lower},

	// serving: rpc-cold-uniform and rpc-hot-zipf
	{Name: "rpc.lat_p99_ms", Unit: "ms", Better: lower},
	{Name: "rpc.cache_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "rpc.shed", Unit: "count", Better: lower},
	{Name: "rpc.timeouts", Unit: "count", Better: lower},
	{Name: "rpc.handler_us_p50", Unit: "us", Better: lower},
	{Name: "rpc.decode_req_us", Unit: "us", Better: lower},
	{Name: "rpc.resp_bytes_per_req", Unit: "count", Better: lower},
	{Name: "rpc.eth_getTransactionByHash_us_p50", Unit: "us", Better: lower},
	{Name: "rpc.eth_getTransactionReceipt_us_p50", Unit: "us", Better: lower},
	{Name: "rpc.eth_getBalance_us_p50", Unit: "us", Better: lower},
	{Name: "rpc.eth_getTransactionCount_us_p50", Unit: "us", Better: lower},
	{Name: "rpc.eth_getBlockByNumber_us_p50", Unit: "us", Better: lower},
	{Name: "rpc.fork_difficultyWindow_us_p50", Unit: "us", Better: lower},
	{Name: "rpc.eth_blockNumber_us_p50", Unit: "us", Better: lower},
	{Name: "rpc.fork_poolShares_us_p50", Unit: "us", Better: lower},
	{Name: "rpc.encode_overhead_us", Unit: "us", Better: lower},
	{Name: "http.transport_us_p50", Unit: "us", Better: lower},
	{Name: "db.reads_per_req", Unit: "count", Better: lower},
	// direct Blockchain reads over the cold key stream: rpc-cold-uniform
	{Name: "chain.tx_by_hash_us", Unit: "us", Better: lower},
	{Name: "chain.receipt_by_hash_us", Unit: "us", Better: lower},
	{Name: "chain.block_by_number_us", Unit: "us", Better: lower},
	{Name: "state.balance_at_us", Unit: "us", Better: lower},
}

// workloadDef is one row of BENCHMARK.json's workloads.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"figures-90d", "scenario to figure CSVs, 90 of the paper's 270 days: sim, pow, pool, market, analysis, export; bypasses trie, state, evm, db, rpc"},
	{"archive-build-disk", "full-fidelity write path as forkserve boots it: chain, evm, state and trie commits, RLP, keccak, one coalesced diskdb batch per day"},
	{"replica-import-disk", "replica sync and restart: decode, full validation, a WAL record and fsynced batch per block, then chain.Open on the directory"},
	{"rpc-cold-uniform", "keys spread evenly over a 54k-tx disk archive against 4096-entry caches: tx index, diskdb reads, state-trie walks, JSON encode"},
	{"rpc-hot-zipf", "forkload's dashboard mix with zipfian recent blocks, working set inside the response cache: HTTP, JSON-RPC codec, worker pool, cache"},
}
