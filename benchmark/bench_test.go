package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestWorkloads runs every workload once untraced and once traced at 1/256
// of its size (N = 2^14 for the 2^22 ones). Both runs verify their outputs;
// the comparisons below are what makes the per-layer numbers believable:
// the wrappers change no accounting, the disk wrapper sees every block, the
// ledger's prediction is exact, and the layers add up.
func TestWorkloads(t *testing.T) {
	e := &env{dir: t.TempDir()}
	tr := newTracer(false)
	for _, s := range specs(256) {
		t.Run(s.name, func(t *testing.T) {
			inst := s.setup(s, 1, e)
			plain, err := iterate(inst, nil)
			if err != nil {
				t.Fatalf("untraced: %v", err)
			}
			traced, err := tracedIterate(s, inst, tr)
			if err != nil {
				t.Fatalf("traced: %v", err)
			}
			if plain.info.io.ParallelOps == 0 {
				t.Fatal("no parallel I/Os counted")
			}
			if p, q := plain.info.io, traced.info.io; p.ParallelOps != q.ParallelOps || p.BlocksMoved != q.BlocksMoved {
				t.Errorf("wrappers are not inert: untraced %v, traced %v", p, q)
			}
			if s.name != "listrank_mem" && traced.sums.tracks != traced.info.io.BlocksMoved {
				t.Errorf("disk wrapper saw %d tracks, the array moved %d blocks", traced.sums.tracks, traced.info.io.BlocksMoved)
			}
			if s.name != "extsort_direct" && (traced.runs == 0 || traced.predOps != traced.measOps) {
				t.Errorf("ledger: %d runs, predicted %d parallel I/Os, measured %d", traced.runs, traced.predOps, traced.measOps)
			}
			m := perLayer(s, []iterStats{plain}, []tracedIter{traced}, 0)
			for name, v := range m {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", name, v)
				}
			}
			if m["costmodel.ops_residual"] != 0 {
				t.Errorf("costmodel.ops_residual = %v, want 0", m["costmodel.ops_residual"])
			}
			if !s.budget {
				return
			}
			if m["core.other_s"] < 0 {
				t.Errorf("core.other_s = %v < 0", m["core.other_s"])
			}
			sum := m["cgm.compute_s"] + m["wordcodec.codec_s"] + m["core.stall_s"] + m["core.other_s"]
			if pwall := float64(s.cfg.P) * m["obs.traced_wall_s"]; math.Abs(sum-pwall) > 1e-9 {
				t.Errorf("layers add up to %v, p·wall is %v", sum, pwall)
			}
			if m["cgm.compute_s"] <= 0 || m["wordcodec.codec_s"] <= 0 {
				t.Errorf("program or codec wrapper saw nothing: compute %v s, codec %v s", m["cgm.compute_s"], m["wordcodec.codec_s"])
			}
		})
	}
}

// Every per-layer metric has one source: the traced run, a microprobe, or
// the roofline ratio made from the two.
func TestPerLayerNames(t *testing.T) {
	e := &env{dir: t.TempDir()}
	s := specs(256)[0]
	it, err := tracedIterate(s, s.setup(s, 1, e), newTracer(false))
	if err != nil {
		t.Fatal(err)
	}
	got := perLayer(s, []iterStats{it.iterStats}, []tracedIter{it}, 0)
	probed, err := probes(e)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range probed {
		if _, dup := got[name]; dup || v <= 0 {
			t.Errorf("probe %s = %v (already a traced metric: %v)", name, v, dup)
		}
		got[name] = v
	}
	got["pdm.roofline_frac"] = 0
	for _, def := range perLayerMetrics {
		if _, ok := got[def.name]; !ok {
			t.Errorf("%s is listed and never measured", def.name)
		}
		delete(got, def.name)
	}
	for name := range got {
		t.Errorf("%s is measured and not listed", name)
	}
}

// A failed run or a failed verification must count, not vanish.
func TestFailuresCount(t *testing.T) {
	inst := &instance{run: func(*tracer) (runInfo, error) { return runInfo{}, errors.New("wrong output") }}
	r := &result{Name: "failing"}
	its := timedPhase(inst, time.Millisecond, r)
	if len(its) != 0 || r.Attempted == 0 || r.Failed != r.Attempted {
		t.Errorf("%d iterations kept, %d attempted, %d failed", len(its), r.Attempted, r.Failed)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(n=4) gives.
func TestSummarise(t *testing.T) {
	got := summarise([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if got.Q1 != 2.75 || got.Median != 5.5 || got.Q3 != 8.25 || got.Min != 1 || got.Max != 10 || got.N != 10 {
		t.Errorf("summarise(1..10) = %+v", got)
	}
	got = summarise([]float64{3, 1, 2})
	if got.Q1 != 1 || got.Median != 2 || got.Q3 != 3 {
		t.Errorf("summarise(1..3) = %+v", got)
	}
}

func TestCompare(t *testing.T) {
	mk := func(wall, ios float64, spread float64) report {
		s := func(v float64) summary {
			return summary{Median: v, Q1: v * (1 - spread/2), Q3: v * (1 + spread/2), Min: v, Max: v, N: 9}
		}
		return report{Workloads: []*result{{Name: "sort_mem", EndToEnd: map[string]summary{
			"wall_s": s(wall), "items_per_s": s(1 / wall), "parallel_ios": {Median: ios, Q1: ios, Q3: ios, N: 9},
		}}}}
	}
	for _, c := range []struct {
		name string
		a, b report
		bad  int
	}{
		{"same", mk(1, 100, 0.02), mk(1.05, 100, 0.02), 0},
		{"faster", mk(1, 100, 0.02), mk(0.5, 100, 0.02), 0},
		{"slower", mk(1, 100, 0.02), mk(1.2, 100, 0.02), 2}, // wall_s and items_per_s
		{"one more I/O", mk(1, 100, 0.02), mk(1, 101, 0.02), 1},
		{"too noisy to tell", mk(1, 100, 0.3), mk(1.2, 100, 0.3), 0},
	} {
		lines, bad := compareReports(c.a, c.b)
		if bad != c.bad {
			t.Errorf("%s: %d regressions, want %d\n%s", c.name, bad, c.bad, strings.Join(lines, "\n"))
		}
	}
	noisy, _ := compareReports(mk(1, 100, 0.3), mk(1.2, 100, 0.3))
	if !strings.Contains(strings.Join(noisy, "\n"), "unresolved") {
		t.Errorf("a quartile range wider than the bound must read unresolved:\n%s", strings.Join(noisy, "\n"))
	}
	failed := mk(1, 100, 0.02)
	failed.Workloads[0].Failed = 1
	if _, bad := compareReports(mk(1, 100, 0.02), failed); bad != 1 {
		t.Errorf("a failed iteration must be a regression, got %d", bad)
	}
}

// BENCHMARK.json and the tables of this package name the same things.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []jsonMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			better := "lower"
			if w.higher {
				better = "higher"
			}
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != better || (g.Bound != nil) != bounded {
				t.Errorf("%s %d: BENCHMARK.json has %+v, here %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEndMetrics, true)
	check("per_layer", file.PerLayer, perLayerMetrics, false)
	listed := slices.DeleteFunc(specs(1), func(s *spec) bool { return !s.listed })
	if len(file.Workloads) != len(listed) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d listed here", len(file.Workloads), len(listed))
	}
	for i, s := range listed {
		if w := file.Workloads[i]; w.Name != s.name || w.Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, here %s: %s", i, w, s.name, s.why)
		}
		if len(s.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", s.name, len(s.why))
		}
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", file.Paths)
	}
}
