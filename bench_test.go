package repro

// The benchmarks of the paper's evaluation. BenchmarkFigures times each
// table emcgm-bench prints, one sub-benchmark per -fig key, and
// BenchmarkFig5GroupA/B/C time the Figure 5 catalogue row by row,
// reporting each row's io-const = ParallelOps/(N/pDB) at the default
// scale. The tables' numbers are printed by emcgm-bench and pinned by
// internal/experiments/testdata/harness.golden. The ablations below
// (balanced routing, block size, v, Observation 2's footprint, context
// caching) have no table of their own.
//
// Run: go test -run '^$' -bench . -benchmem

import (
	"fmt"
	"testing"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pdm"
	"repro/internal/sortalg"
	"repro/internal/wordcodec"
	"repro/internal/workload"
)

const (
	benchV = 8
	benchP = 4
	benchD = 2
	benchB = 256
)

// BenchmarkFigures times each table of the evaluation as emcgm-bench
// -fig <key> builds it at the default scale.
func BenchmarkFigures(b *testing.B) {
	s := experiments.DefaultScale()
	for _, f := range experiments.Figures {
		b.Run(f.Key, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f.Make(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5GroupA times Group A's rows: sorting, the PDM mergesort
// baseline, permutation and transpose.
func BenchmarkFig5GroupA(b *testing.B) { benchFig5(b, "A") }

// BenchmarkFig5GroupB times the geometry rows of Figure 5.
func BenchmarkFig5GroupB(b *testing.B) { benchFig5(b, "B") }

// BenchmarkFig5GroupC times the graph rows of Figure 5.
func BenchmarkFig5GroupC(b *testing.B) { benchFig5(b, "C") }

// benchFig5 runs one group of the Figure 5 catalogue at the default
// scale, a sub-benchmark per row at the row's N, and reports its I/O
// constant.
func benchFig5(b *testing.B, group string) {
	s := experiments.DefaultScale()
	for _, p := range experiments.Fig5Problems {
		if p.Group != group {
			continue
		}
		b.Run(p.Bench, func(b *testing.B) {
			b.ReportAllocs()
			var m experiments.Measurement
			for i := 0; i < b.N; i++ {
				var err error
				if m, err = p.Measure(s, p.N(s)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(m.Constant, "io-const")
		})
	}
}

// BenchmarkBalancedRouting measures the ablation of Lemma 2: the same
// sort with and without BalancedRouting.
func BenchmarkBalancedRouting(b *testing.B) {
	b.ReportAllocs()
	const n = 1 << 15
	for _, bal := range []bool{false, true} {
		b.Run(fmt.Sprintf("balanced=%v", bal), func(b *testing.B) {
			b.ReportAllocs()
			keys := workload.Int64s(1, n)
			var ops int64
			for i := 0; i < b.N; i++ {
				_, res, err := sortalg.EMSort(keys, wordcodec.I64{},
					core.Config{V: benchV, P: benchP, D: benchD, B: benchB, Balanced: bal})
				if err != nil {
					b.Fatal(err)
				}
				ops = res.IO.ParallelOps
			}
			b.ReportMetric(float64(ops), "parallel-IOs")
		})
	}
}

// TestBenchHarnessSmoke keeps the experiment package covered by `go test`:
// every figure must regenerate without error at a tiny scale.
func TestBenchHarnessSmoke(t *testing.T) {
	s := experiments.Scale{N: 1 << 12, V: 4, P: 2, B: 64}
	for _, f := range experiments.Figures {
		if f.Key == "depth" {
			continue // on disk files; internal/experiments' TestDepthFigure runs it
		}
		if tb, err := f.Make(s); err != nil || len(tb.Rows) == 0 {
			t.Errorf("-fig %s: %v", f.Key, err)
		}
	}
}

// BenchmarkBlockSizeSweep is the ablation connecting Figure 8 to the
// machine: the same sort at growing block size B. Parallel I/O count
// falls as 1/B while the modelled time per op grows only slowly past the
// knee — large blocks win, which is the paper's point in fixing B ≈ 10³.
func BenchmarkBlockSizeSweep(b *testing.B) {
	b.ReportAllocs()
	const n = 1 << 16
	tm := pdm.DefaultTimeModel()
	for _, bs := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("B=%d", bs), func(b *testing.B) {
			b.ReportAllocs()
			keys := workload.Int64s(1, n)
			var modelled float64
			for i := 0; i < b.N; i++ {
				_, res, err := sortalg.EMSort(keys, wordcodec.I64{},
					core.Config{V: benchV, P: benchP, D: benchD, B: bs})
				if err != nil {
					b.Fatal(err)
				}
				modelled = tm.IOTime(res.IO.ParallelOps/int64(benchP), bs).Seconds()
			}
			b.ReportMetric(modelled, "modelled-io-sec")
		})
	}
}

// BenchmarkVirtualProcessorSweep varies v at fixed N: more virtual
// processors shrink contexts (μ = N/v) but add rounds-independent matrix
// slots — the trade Theorem 2's G·O(λvμ/DB) captures.
func BenchmarkVirtualProcessorSweep(b *testing.B) {
	b.ReportAllocs()
	const n = 1 << 16
	for _, v := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("v=%d", v), func(b *testing.B) {
			b.ReportAllocs()
			keys := workload.Int64s(2, n)
			var ops int64
			for i := 0; i < b.N; i++ {
				_, res, err := sortalg.EMSort(keys, wordcodec.I64{},
					core.Config{V: v, P: 4, D: benchD, B: benchB})
				if err != nil {
					b.Fatal(err)
				}
				ops = res.IO.ParallelOps
			}
			b.ReportMetric(float64(ops), "parallel-IOs")
		})
	}
}

// BenchmarkObservation2Footprint compares the single-copy alternating
// message matrix (RunSeq) with the double-buffered layout (RunPar, p=1):
// same I/O semantics, roughly half the disk footprint.
func BenchmarkObservation2Footprint(b *testing.B) {
	b.ReportAllocs()
	const n = 1 << 14
	keys := workload.Int64s(3, n)
	cfg := sortalg.EMSortConfig(core.Config{V: benchV, P: 1, D: benchD, B: benchB}, n)
	b.Run("single-copy-seq", func(b *testing.B) {
		b.ReportAllocs()
		var tracks int
		for i := 0; i < b.N; i++ {
			res, err := core.RunSeq[int64](sortalg.Sorter[int64]{}, wordcodec.I64{}, cfg, cgmScatter(keys, benchV))
			if err != nil {
				b.Fatal(err)
			}
			tracks = res.MaxTracks
		}
		b.ReportMetric(float64(tracks), "max-tracks")
	})
	b.Run("double-buffered-par", func(b *testing.B) {
		b.ReportAllocs()
		var tracks int
		for i := 0; i < b.N; i++ {
			res, err := core.RunPar[int64](sortalg.Sorter[int64]{}, wordcodec.I64{}, cfg, cgmScatter(keys, benchV))
			if err != nil {
				b.Fatal(err)
			}
			tracks = res.MaxTracks
		}
		b.ReportMetric(float64(tracks), "max-tracks")
	})
}

// cgmScatter re-exports the partitioner for benches.
func cgmScatter(keys []int64, v int) [][]int64 { return cgm.Scatter(keys, v) }

// BenchmarkContextCaching is the M = Θ(μ) ablation: at p = v, resident
// contexts eliminate the context-swap I/O, leaving only message-matrix
// traffic.
func BenchmarkContextCaching(b *testing.B) {
	b.ReportAllocs()
	const n, v = 1 << 16, 8
	keys := workload.Int64s(5, n)
	for _, cached := range []bool{false, true} {
		b.Run(fmt.Sprintf("cached=%v", cached), func(b *testing.B) {
			b.ReportAllocs()
			cfg := sortalg.EMSortConfig(core.Config{V: v, P: v, D: benchD, B: benchB, CacheContexts: cached}, n)
			var ops int64
			for i := 0; i < b.N; i++ {
				res, err := core.RunPar[int64](sortalg.Sorter[int64]{}, wordcodec.I64{}, cfg, cgmScatter(keys, v))
				if err != nil {
					b.Fatal(err)
				}
				ops = res.IO.ParallelOps
			}
			b.ReportMetric(float64(ops), "parallel-IOs")
		})
	}
}
