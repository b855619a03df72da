package main

// Metric definitions and the small statistics the harness reports them
// with. Every metric names the clock it is measured on: "wall" (host
// time of this machine), "sim" (the cl.Cost model's simulated seconds and
// joules — the paper's clock) or "count" (operation counts that repeat
// exactly for one seed).

import (
	"math"
	"sort"
)

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Clock  string // "wall", "sim" or "count"
	// Bound is the share by which two runs of the same code may differ
	// before -agree fails (and, for contract metrics, the regression
	// bound in BENCHMARK.json). Per-layer metrics have none.
	Bound float64
	// Exact metrics must be bit-identical between two fixed-size runs of
	// one seed; Bound then only serves the time-bounded driver runs,
	// where the number of operations completed varies.
	Exact bool
	// Contract marks the end-to-end metrics listed in BENCHMARK.json. Its
	// driver requires each workload to report every listed metric and the
	// spread of each over ten runs to stay within the bound, so only
	// metrics that every workload observes and that this machine can hold
	// within 0.25 are marked: the operation latency percentiles are not
	// (see "Noise calibration" in README.md).
	Contract bool
}

// endToEnd lists what a user of the system sees, per workload. A metric
// a workload cannot observe is omitted for it, never zero-filled.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Clock: "wall", Bound: 0.25, Contract: true},
	{Name: "reads_per_s", Unit: "1/s", Better: "higher", Clock: "wall", Bound: 0.25, Contract: true},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Clock: "wall", Bound: 0.25},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower", Clock: "wall", Bound: 0.25},
	{Name: "ops_failed_ratio", Unit: "ratio", Better: "lower", Clock: "count", Exact: true},
	{Name: "alloc_bytes_per_read", Unit: "B/read", Better: "lower", Clock: "count", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Clock: "wall", Bound: 0.10},
	{Name: "sim_s_per_mread", Unit: "s/Mread", Better: "lower", Clock: "sim", Bound: 0.15, Exact: true, Contract: true},
	{Name: "sim_j_per_mread", Unit: "J/Mread", Better: "lower", Clock: "sim", Bound: 0.15, Exact: true, Contract: true},
	{Name: "sensitivity", Unit: "%", Better: "higher", Clock: "count", Bound: 0.05, Exact: true, Contract: true},
}

// perLayer lists the traced pass's metrics, named <layer>.<name> after
// the repository's packages. They carry no bound: they explain a move in
// an end-to-end metric, they do not gate one. The exact ones derive only
// from cl.Cost counts and byte counts, so they repeat bit for bit.
var perLayer = []metricDef{
	{Name: "fmindex.extend_ns_per_step", Unit: "ns", Better: "lower", Clock: "wall"},
	{Name: "fmindex.steps_per_read", Unit: "count", Better: "lower", Clock: "count", Exact: true},
	{Name: "fmindex.locate_ns_per_pos", Unit: "ns", Better: "lower", Clock: "wall"},
	{Name: "fmindex.locate_steps_per_read", Unit: "count", Better: "lower", Clock: "count", Exact: true},
	{Name: "seed.select_ns_per_read", Unit: "ns", Better: "lower", Clock: "wall"},
	{Name: "seed.dp_cells_per_read", Unit: "count", Better: "lower", Clock: "count", Exact: true},
	{Name: "seed.candidates_per_read", Unit: "count", Better: "lower", Clock: "count", Exact: true},
	{Name: "seed.allocs_per_read", Unit: "count", Better: "lower", Clock: "count"},
	{Name: "mapper.dedup_ns_per_read", Unit: "ns", Better: "lower", Clock: "wall"},
	{Name: "mapper.dedup_kept_ratio", Unit: "ratio", Better: "higher", Clock: "count", Exact: true},
	{Name: "mapper.verify_ns_per_read", Unit: "ns", Better: "lower", Clock: "wall"},
	{Name: "mapper.verified_ratio", Unit: "ratio", Better: "higher", Clock: "count", Exact: true},
	{Name: "mapper.finalize_ns_per_read", Unit: "ns", Better: "lower", Clock: "wall"},
	{Name: "mapper.merge_ns_per_read", Unit: "ns", Better: "lower", Clock: "wall"},
	{Name: "mapper.allocs_per_read", Unit: "count", Better: "lower", Clock: "count"},
	{Name: "align.verify_words_per_read", Unit: "count", Better: "lower", Clock: "count", Exact: true},
	{Name: "align.ns_per_word", Unit: "ns", Better: "lower", Clock: "wall"},
	{Name: "filter.ns_per_word", Unit: "ns", Better: "lower", Clock: "wall"},
	{Name: "filter.words_per_read", Unit: "count", Better: "lower", Clock: "count", Exact: true},
	{Name: "filter.rejected_ratio", Unit: "ratio", Better: "higher", Clock: "count", Exact: true},
	{Name: "filter.false_accept_ratio", Unit: "ratio", Better: "lower", Clock: "count", Exact: true},
	{Name: "core.map_serial_ns_per_read", Unit: "ns", Better: "lower", Clock: "wall"},
	{Name: "core.replay_coverage", Unit: "ratio", Better: "higher", Clock: "wall"},
	{Name: "core.overhead_ns_per_read", Unit: "ns", Better: "lower", Clock: "wall"},
	{Name: "core.parallel_speedup", Unit: "ratio", Better: "higher", Clock: "wall"},
	{Name: "core.allocs_per_read", Unit: "count", Better: "lower", Clock: "count"},
	{Name: "cl.ops_per_read", Unit: "count", Better: "lower", Clock: "count", Exact: true},
	{Name: "cl.bytes_per_read", Unit: "B", Better: "lower", Clock: "count", Exact: true},
	{Name: "cl.device_busy_s", Unit: "s", Better: "lower", Clock: "sim", Exact: true},
	{Name: "index.build_s", Unit: "s", Better: "lower", Clock: "wall"},
	{Name: "index.shard_build_s", Unit: "s", Better: "lower", Clock: "wall"},
	{Name: "index.save_s", Unit: "s", Better: "lower", Clock: "wall"},
	{Name: "index.load_s", Unit: "s", Better: "lower", Clock: "wall"},
	{Name: "index.file_mb", Unit: "MB", Better: "lower", Clock: "count", Exact: true},
	{Name: "fastx.scan_ns_per_read", Unit: "ns", Better: "lower", Clock: "wall"},
	{Name: "fastx.allocs_per_read", Unit: "count", Better: "lower", Clock: "count"},
	{Name: "sam.write_ns_per_read", Unit: "ns", Better: "lower", Clock: "wall"},
	{Name: "sam.write_ns_per_record", Unit: "ns", Better: "lower", Clock: "wall"},
	{Name: "sam.bytes_per_read", Unit: "B", Better: "lower", Clock: "count", Exact: true},
	{Name: "sam.allocs_per_read", Unit: "count", Better: "lower", Clock: "count"},
	{Name: "checkpoint.save_ms", Unit: "ms", Better: "lower", Clock: "wall"},
	{Name: "checkpoint.saves_per_kread", Unit: "count", Better: "lower", Clock: "count", Exact: true},
	{Name: "serve.submit_ms", Unit: "ms", Better: "lower", Clock: "wall"},
	{Name: "serve.queue_wait_ms", Unit: "ms", Better: "lower", Clock: "wall"},
	{Name: "serve.run_ms", Unit: "ms", Better: "lower", Clock: "wall"},
	{Name: "serve.fetch_sam_ms", Unit: "ms", Better: "lower", Clock: "wall"},
	{Name: "serve.polls_per_job", Unit: "count", Better: "lower", Clock: "count"},
	{Name: "serve.retried_429", Unit: "count", Better: "lower", Clock: "count"},
	{Name: "serve.overhead_ratio", Unit: "ratio", Better: "lower", Clock: "wall"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Clock: "wall"},
}

// percentile returns the p-th percentile (0..100) of sorted values by
// linear interpolation between closest ranks; NaN for no values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (rank-float64(lo))*(sorted[hi]-sorted[lo])
}

// median returns the median of values without reordering them.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) does (the "exclusive"
// method: position k·(n+1)/4, clamped to the ends), so spreads computed
// here match the ones the benchmark driver computes. It needs at least
// two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	cut := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// worseBy reports by what share of a the value b is worse than a in the
// metric's direction (negative when b is better).
func (m metricDef) worseBy(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if m.Better == "higher" {
		d = -d
	}
	return d
}
