package main

// metric declares one reported figure.  Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the library or the service sees.  Every
// workload reports all of them from its untraced run (--trace 0).
//
// Times are the CPU time the program spent (cpuNow), not wall-clock
// time: on the shared host this runs on, the hypervisor's stolen time
// and other tenants swung wall-clock throughput and latency by up to
// two thirds of their median between runs of the same code, more than
// any bound that could catch a regression.  The wall-clock figures
// are in each run's info line.
//
// The failure share is carried by the result line's attempted/failed
// counts, and the SLO miss share as its complement slo_met_ratio: a
// bounded metric must never read 0, and both shares are 0 at a healthy
// commit.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "solves_per_cpu_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "solve_cpu_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "solve_cpu_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "slo_met_ratio", Unit: "ratio", Better: "higher", Bound: 0.1},
	{Name: "cost_sum", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "gap_sum", Unit: "count", Better: "lower", Bound: 0.2},
	{Name: "alloc_mb_per_solve", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
}

// layer groups the per-layer metrics of one layer with the end-to-end
// figure each should move, and where it should have little effect.
type layer struct {
	Name    string
	Moves   string // the end-to-end metric it should move, and where
	Flat    string // where it should have little or no effect
	Metrics []metric
}

func lm(name, unit, better string) metric { return metric{Name: name, Unit: unit, Better: better} }

// layers lists every per-layer metric (--trace 1).  A workload that
// bypasses a layer reports its metrics as 0.
var layers = []layer{
	{Name: "pla", Moves: "solve_cpu_p50_ms on pla_minimize (small share, predicted flat)", Flat: "scp_cores",
		Metrics: []metric{lm("pla.parse_ms", "ms", "lower")}},
	{Name: "primes", Moves: "solves_per_cpu_s and solve_cpu_tail_ms on pla_minimize", Flat: "scp_cores",
		Metrics: []metric{
			lm("primes.gen_ms", "ms", "lower"),
			lm("primes.count", "count", "lower"),
			lm("primes.dense_share", "ratio", "higher"),
			lm("primes.covering_ms", "ms", "lower"),
			lm("primes.covering_nnz", "count", "lower"),
		}},
	{Name: "scg implicit + zdd", Moves: "solve_cpu_tail_ms on pla_minimize", Flat: "scp_cores (dense shortcut)",
		Metrics: []metric{
			lm("implicit.ms", "ms", "lower"),
			lm("implicit.zdd_share", "ratio", "lower"),
			lm("implicit.rows_in", "count", "lower"),
			lm("implicit.rows_out", "count", "lower"),
			lm("zdd.peak_nodes", "count", "lower"),
			lm("zdd.live_nodes", "count", "lower"),
			lm("zdd.chain_ratio", "ratio", "higher"),
			lm("zdd.collections", "count", "lower"),
		}},
	{Name: "matrix", Moves: "solve_cpu_p50_ms on pla_minimize", Flat: "solves_per_cpu_s on scp_cores",
		Metrics: []metric{
			lm("reduce.ms", "ms", "lower"),
			lm("reduce.core_rows", "count", "lower"),
			lm("reduce.core_cols", "count", "lower"),
			lm("partition.ms", "ms", "lower"),
			lm("partition.parts", "count", "higher"),
		}},
	{Name: "lagrangian", Moves: "solves_per_cpu_s on scp_cores", Flat: "pla_minimize",
		Metrics: []metric{
			lm("subgradient.ms", "ms", "lower"),
			lm("subgradient.iters", "count", "lower"),
			lm("subgradient.ns_per_iter", "ns", "lower"),
			lm("subgradient.lb_sum", "count", "higher"),
			lm("dualascent.ms", "ms", "lower"),
			lm("greedy.ms", "ms", "lower"),
		}},
	{Name: "scg portfolio", Moves: "solves_per_cpu_s and solve_cpu_tail_ms on scp_cores", Flat: "pla_minimize",
		Metrics: []metric{
			lm("scg.core_ms", "ms", "lower"),
			lm("scg.loop_ms", "ms", "lower"),
			lm("scg.subgrad_iters", "count", "lower"),
			lm("scg.fix_steps", "count", "lower"),
			lm("scg.runs", "count", "lower"),
			lm("scg.speedup_w1", "ratio", "higher"),
		}},
	{Name: "scpio + shard", Moves: "solve_cpu_tail_ms on scp_cores", Flat: "ucpd_mix",
		Metrics: []metric{
			lm("scpio.parse_mb_per_s", "MB/s", "higher"),
			lm("shard.ms", "ms", "lower"),
			lm("shard.components", "count", "higher"),
			lm("shard.spilled", "count", "lower"),
			lm("shard.peak_bytes", "bytes", "lower"),
		}},
	{Name: "serve", Moves: "solve_cpu_p50_ms and slo_met_ratio on ucpd_mix", Flat: "library workloads",
		Metrics: []metric{
			lm("serve.overhead_p50_ms", "ms", "lower"),
			lm("serve.overhead_tail_ms", "ms", "lower"),
			lm("serve.solve_ms", "ms", "lower"),
			lm("serve.rejected_ratio", "ratio", "lower"),
			lm("serve.status_5xx", "count", "lower"),
		}},
	{Name: "solvecache + canon", Moves: "solve_cpu_p50_ms on ucpd_mix", Flat: "library workloads (no cache)",
		Metrics: []metric{
			lm("cache.hit_ratio", "ratio", "higher"),
			lm("cache.hit_ms", "ms", "lower"),
			lm("canon.fingerprint_ms", "ms", "lower"),
		}},
	{Name: "resolve", Moves: "solve_cpu_p50_ms on ucpd_mix", Flat: "library workloads",
		Metrics: []metric{
			lm("resolve.ms", "ms", "lower"),
			lm("resolve.cold_ms", "ms", "lower"),
			lm("resolve.parent_hits", "count", "higher"),
			lm("resolve.unknown_parents", "count", "lower"),
		}},
	{Name: "bench", Moves: "-", Flat: "-",
		Metrics: []metric{
			lm("bench.gen_lag_ms", "ms", "lower"),
			lm("bench.trace_overhead_pct", "%", "lower"),
			lm("pipeline.self_ms", "ms", "lower"),
			lm("bench.ref_ms", "ms", "lower"),
		}},
}

// perLayer flattens layers in declaration order.
func perLayer() []metric {
	var out []metric
	for _, l := range layers {
		out = append(out, l.Metrics...)
	}
	return out
}

// exactRepeat names the counters that must read identically on every
// run at one seed, on any machine: a difference is a determinism
// failure, and a change to one is a sharp signal, unlike a timing.
var exactRepeat = []string{
	"cost_sum", "gap_sum",
	"primes.count", "zdd.peak_nodes",
	"reduce.core_rows", "reduce.core_cols",
	"scg.subgrad_iters", "scg.fix_steps", "scg.runs",
}

// heldOutSeed was never used while the workloads and bounds were
// tuned; a later speed claim should also hold at this seed.
const heldOutSeed = 7331
