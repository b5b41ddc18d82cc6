package main

import "slices"

// metric is one named number the benchmark reports. BENCHMARK.json lists
// the same names, units and directions; the tests hold the two together.
type metric struct {
	name   string
	unit   string
	higher bool // a higher value is better
	// bound is the share of the median by which an end-to-end metric may
	// worsen between two recordings before -compare reports a regression;
	// perWorkload says the workload sets it instead (spec.wallBound).
	bound       float64
	perWorkload bool
}

// endToEndMetrics are what a user of the system sees, per workload.
var endToEndMetrics = []metric{
	{name: "wall_s", unit: "s", perWorkload: true},
	{name: "items_per_s", unit: "items/s", higher: true, perWorkload: true},
	{name: "parallel_ios", unit: "ops", bound: 0},
	{name: "alloc_mb", unit: "MB", bound: 0.05},
	{name: "setup_s", unit: "s", bound: 0.25},
}

// failedFrac is reported beside the end-to-end metrics and held to 0
// absolutely; the one-line result carries it as attempted and failed.
const failedFrac = "failed_frac"

// perLayerMetrics are single layers' numbers from the traced run, with the
// end-to-end metric each is expected to move in benchmark/README.md.
var perLayerMetrics = []metric{
	{name: "pdm.disk_busy_s", unit: "s"},
	{name: "pdm.disk_util", unit: "frac", higher: true},
	{name: "pdm.mb_per_s", unit: "MB/s", higher: true},
	{name: "pdm.syscalls_per_pio", unit: "1/op"},
	{name: "pdm.disk_calls", unit: "count"},
	{name: "pdm.tracks_per_call", unit: "count", higher: true},
	{name: "pdm.runs_per_call", unit: "count"},
	{name: "pdm.blocks_moved", unit: "count"},
	{name: "pdm.fullness", unit: "frac", higher: true},
	{name: "core.stall_s", unit: "s"},
	{name: "core.stall_frac", unit: "frac"},
	{name: "core.depth", unit: "count"},
	{name: "core.depth_traced", unit: "count"},
	{name: "core.other_s", unit: "s"},
	{name: "core.other_frac", unit: "frac"},
	{name: "core.rounds", unit: "count"},
	{name: "core.supersteps", unit: "count"},
	{name: "core.runs", unit: "count"},
	{name: "core.us_per_superstep", unit: "us"},
	{name: "core.ctx_ops", unit: "ops"},
	{name: "core.msg_ops", unit: "ops"},
	{name: "core.io_const", unit: "ratio"},
	{name: "core.comm_items", unit: "items"},
	{name: "core.max_tracks", unit: "tracks"},
	{name: "cgm.compute_s", unit: "s"},
	{name: "cgm.compute_frac", unit: "frac", higher: true},
	{name: "cgm.inmem_wall_s", unit: "s"},
	{name: "cgm.em_over_inmem", unit: "ratio"},
	{name: "wordcodec.codec_s", unit: "s"},
	{name: "wordcodec.codec_frac", unit: "frac"},
	{name: "wordcodec.words_per_s", unit: "words/s", higher: true},
	{name: "go.allocs", unit: "count"},
	{name: "go.num_gc", unit: "count"},
	{name: "go.gc_pause_s", unit: "s"},
	{name: "costmodel.ops_residual", unit: "ops"},
	{name: "costmodel.wall_pred_over_meas", unit: "ratio", higher: true},
	{name: "costmodel.stall_pred_over_meas", unit: "ratio", higher: true},
	{name: "obs.trace_overhead_frac", unit: "frac"},
	{name: "obs.dropped_events", unit: "count"},
	{name: "obs.traced_wall_s", unit: "s"},
	{name: "sortalg.passes", unit: "count"},
	{name: "sortalg.speedup_vs_extsort", unit: "ratio", higher: true},
	{name: "pdm.dispatch_ns_per_pio", unit: "ns"},
	{name: "pdm.roofline_mb_per_s", unit: "MB/s", higher: true},
	{name: "pdm.roofline_frac", unit: "frac", higher: true},
	{name: "layout.reqs_per_s", unit: "1/s", higher: true},
	{name: "balance.items_per_s", unit: "items/s", higher: true},
	{name: "core.noop_superstep_us", unit: "us"},
}

// summary is a sample reported as the guide asks for timings: median,
// quartiles, extremes and count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// summarise computes the quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), because that
// is what the acceptance harness computes over the runs of this program.
func summarise(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n == 1 {
		return summary{Median: s[0], Q1: s[0], Q3: s[0], Min: s[0], Max: s[0], N: 1}
	}
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return summary{Median: quartile(2), Q1: quartile(1), Q3: quartile(3), Min: s[0], Max: s[n-1], N: n}
}
