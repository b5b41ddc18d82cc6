// Package experiments regenerates every table and figure of the paper's
// evaluation: Figures 3 and 4 (sorting running times), Figure 5 (the
// problem/I/O-complexity table, measured), Figures 6 and 7 (the
// parameter-space surface), Figure 8 (block-size/throughput), plus the
// BalancedRouting bound demonstration of Theorem 1, the cache-control
// extension, the p/D scalability sweep and the wall-clock depth sweep
// over disk substrates. Each experiment returns a trace.Table;
// cmd/emcgm-bench prints them and EXPERIMENTS.md records
// paper-vs-measured.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/balance"
	"repro/internal/cache"
	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/sortalg"
	"repro/internal/theory"
	"repro/internal/trace"
	"repro/internal/wordcodec"
	"repro/internal/workload"
)

// Scale is the machine and problem size every experiment derives its runs
// from, plus what the runs are observed with.
type Scale struct {
	N int // base item count for the sort experiments
	V int // virtual processors
	P int // real processors
	B int // block size (words)

	// Depth is the window depth k passed to every EM-CGM run the
	// experiments perform (core.Config.PipelineDepth): 0 picks the auto
	// policy, 1 is the synchronous schedule; the PDM accounting is
	// identical at every depth.
	Depth int

	// DiskDir is where DepthSweep's file substrates place their disk
	// files; empty means a fresh temporary directory, removed when the
	// figure returns. DirectIO adds the file+direct substrate where the
	// directory's filesystem supports O_DIRECT.
	DiskDir  string
	DirectIO bool

	// Rec, when non-nil, traces every EM-CGM run an experiment performs.
	Rec *obs.Recorder

	// Ledger, when non-nil (requires Rec), collects a predicted-vs-
	// measured costmodel entry for every EM-CGM run an experiment
	// performs, reconcilable with costmodel.Ledger.Reconcile.
	Ledger *costmodel.Ledger
}

// DefaultScale is used by the CLI and the benchmarks.
func DefaultScale() Scale { return Scale{N: 1 << 16, V: 8, P: 4, B: 512} }

// Fig3 reproduces Figure 3: sorting wall time of (a) the in-memory CGM
// sort run through the virtual-memory model versus (b) the EM-CGM
// simulation, as N grows past the memory size. The VM curve explodes at
// the paging knee; the EM-CGM curve stays linear — the paper's
// demonstration of practicality.
func Fig3(s Scale) (*trace.Table, error) {
	t := &trace.Table{
		Title:   "Figure 3 — sorting: virtual memory vs EM-CGM simulation (modelled time)",
		Columns: []string{"N", "VM sort", "EM-CGM sort", "EM I/Os", "VM/EM ratio"},
	}
	mWords := s.N / 2 // physical memory half of the largest run's working set
	vm := theory.DefaultVMModel(mWords)
	em := theory.EMModel{
		OpTime:     pdm.DefaultTimeModel().OpTime(s.B),
		CPUPerItem: 100 * time.Nanosecond,
		CommPerIt:  50 * time.Nanosecond,
		SyncTime:   100 * time.Microsecond,
	}
	for _, n := range []int{s.N / 8, s.N / 4, s.N / 2, s.N, 2 * s.N} {
		keys := workload.Int64s(int64(n), n)
		cfg := core.Config{V: s.V, P: s.P, D: 2, B: s.B, Recorder: s.Rec, PipelineDepth: s.Depth}
		_, res, err := sortalg.EMSort(keys, wordcodec.I64{}, cfg)
		if err != nil {
			return nil, fmt.Errorf("fig3 n=%d: %w", n, err)
		}
		vmT := vm.SortTime(n)
		emT := em.Time(n, res.Rounds, res.IO.ParallelOps/int64(s.P), res.CommItems, res.Supersteps)
		ratio := float64(vmT) / float64(emT)
		t.AddRow(n, vmT.String(), emT.String(), res.IO.ParallelOps, trace.FormatFloat(ratio))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("VM model: M=%d words, LRU + random access (IRM), 10ms fault; EM-CGM: v=%d p=%d D=2 B=%d", mWords, s.V, s.P, s.B),
		"paper: VM curve leaves the chart once the working set exceeds memory; EM-CGM stays linear")
	return t, nil
}

// Fig4 reproduces Figure 4: EM-CGM sort with one and two disks — doubling
// D halves the I/O time.
func Fig4(s Scale) (*trace.Table, error) {
	t := &trace.Table{
		Title:   "Figure 4 — EM-CGM sort: one disk vs two disks",
		Columns: []string{"N", "D", "parallel I/Os", "I/O time", "fullness"},
	}
	tm := pdm.DefaultTimeModel()
	for _, n := range []int{s.N / 4, s.N / 2, s.N} {
		for _, d := range []int{1, 2} {
			keys := workload.Int64s(int64(n), n)
			cfg := core.Config{V: s.V, P: s.P, D: d, B: s.B, Recorder: s.Rec, PipelineDepth: s.Depth}
			_, res, err := sortalg.EMSort(keys, wordcodec.I64{}, cfg)
			if err != nil {
				return nil, fmt.Errorf("fig4 n=%d d=%d: %w", n, d, err)
			}
			perProc := res.IO.ParallelOps / int64(s.P)
			t.AddRow(n, d, res.IO.ParallelOps, tm.IOTime(perProc, s.B).String(),
				trace.FormatFloat(res.IO.Fullness(d)))
		}
	}
	t.Notes = append(t.Notes, "paper: multiple disks reduce the running time proportionally")
	return t, nil
}

// Fig6 reproduces Figure 6: the surface N^(c-1) = v^c·B^(c-1) — the
// minimum problem size at which the sorting log factor collapses to the
// constant c, for B = 10³.
func Fig6() *trace.Table {
	t := &trace.Table{
		Title:   "Figure 6 — surface N^(c-1) = v^c·B^(c-1) (B = 1000): minimum N (items)",
		Columns: []string{"v", "c=2", "c=3", "c=4"},
	}
	for _, v := range []float64{2, 10, 100, 1000, 10000} {
		t.AddRow(int(v),
			trace.FormatFloat(theory.MinNForConstant(2, v, 1000)),
			trace.FormatFloat(theory.MinNForConstant(3, v, 1000)),
			trace.FormatFloat(theory.MinNForConstant(4, v, 1000)))
	}
	t.Notes = append(t.Notes,
		"paper: c=2 needs ~100 giga-items at v=10⁴; c=3 needs ~1 giga-item at v=10⁴",
		"any point on or above the surface removes the log_{M/B}(N/B) factor")
	return t
}

// Fig7 reproduces Figure 7: the c = 2 slice of the surface.
func Fig7() *trace.Table {
	t := &trace.Table{
		Title:   "Figure 7 — minimum N for c = 2 (B = 1000)",
		Columns: []string{"v", "min N", "paper's reading"},
	}
	readings := map[int]string{
		10: "~10^5", 100: "~10^7 (≈10 mega-items)", 1000: "~10^9", 10000: "~10^11 (≈100 giga-items)",
	}
	for _, v := range []int{2, 10, 100, 1000, 10000} {
		t.AddRow(v, trace.FormatFloat(theory.MinNForConstant(2, float64(v), 1000)), readings[v])
	}
	return t
}

// Fig8 reproduces Figure 8 (Stevens' measurements): effective disk
// throughput versus block size under the seek+transfer time model —
// rising with B and saturating near B ≈ 10³ items, the paper's
// justification for fixing B ≈ 10³.
func Fig8() *trace.Table {
	t := &trace.Table{
		Title:   "Figure 8 — effective throughput vs block size (seek+transfer disk model)",
		Columns: []string{"B (words)", "bytes/op", "op time", "throughput MB/s", "% of media rate"},
	}
	m := pdm.DefaultTimeModel()
	for b := 1; b <= 1<<17; b *= 4 {
		tp := m.Throughput(b)
		t.AddRow(b, 8*b, m.OpTime(b).String(),
			trace.FormatFloat(tp/1e6),
			trace.FormatFloat(100*tp/m.TransferBytesPerSec))
	}
	t.Notes = append(t.Notes,
		"shape matches Stevens' measurements: throughput saturates once transfer dominates positioning",
		"the knee justifies the paper's choice B ≈ 10³")
	return t
}

// Balance demonstrates Theorem 1: a skewed h-relation (every processor
// sends its whole partition to a single neighbour) is replaced by two
// rounds of balanced messages within h/v ± (v-1)/2, while the round count
// at most doubles (Lemma 2). With fixed-size messages the simulation can
// assign Θ(N/v²)-sized disk slots — a factor v smaller than the
// unbalanced worst case.
func Balance() *trace.Table {
	t := &trace.Table{
		Title:   "Theorem 1 — BalancedRouting (skewed one-neighbour h-relation)",
		Columns: []string{"v", "h", "plain max msg", "balanced max msg", "bound h/v+(v-1)/2", "rounds ×"},
	}
	for _, v := range []int{4, 8, 16} {
		n := v * v * 8
		per := n / v
		plain, _ := cgm.Run[int64](toNeighbour{}, v, cgm.Scatter(workload.Int64s(1, n), v))
		wrapped, _ := cgm.Run(balance.Wrap[int64](toNeighbour{}), v, cgm.Scatter(workload.Int64s(1, n), v))
		bound := per/v + (v-1)/2 + 1
		t.AddRow(v, per, plain.Stats.MaxMsg, wrapped.Stats.MaxMsg, bound,
			fmt.Sprintf("%d→%d", plain.Stats.Rounds, wrapped.Stats.Rounds))
	}
	t.Notes = append(t.Notes,
		"every processor sends and receives exactly h = N/v, but in one message — the worst case for slot sizing",
		"Lemma 2: balancing at most doubles the rounds while pinning message sizes near h/v")
	return t
}

// toNeighbour sends the whole partition to the next processor once.
type toNeighbour struct{}

func (toNeighbour) Init(vp *cgm.VP[int64], input []int64) { vp.State = append([]int64(nil), input...) }
func (toNeighbour) Round(vp *cgm.VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	if round == 0 {
		out := make([][]int64, vp.V)
		out[(vp.ID+1)%vp.V] = append([]int64(nil), vp.State...)
		return out, false
	}
	src := (vp.ID - 1 + vp.V) % vp.V
	vp.State = append(vp.State[:0], inbox[src]...)
	return nil, true
}
func (toNeighbour) Output(vp *cgm.VP[int64]) []int64 { return vp.State }

// Cache reproduces the second Section 5 extension: sorting with
// virtual-processor contexts tuned to the cache (the EM-CGM simulation
// run at cache-line block size) versus an untuned in-memory sort whose
// random accesses thrash the cache — Vishkin's suggestion the paper
// supports.
func Cache() (*trace.Table, error) {
	t := &trace.Table{
		Title:   "Section 5 — cache control: CGM-tuned sort vs naive sort (modelled misses)",
		Columns: []string{"N", "cache", "v (tuned)", "tuned misses", "naive misses", "naive/tuned"},
	}
	m := cache.Model{MWords: 1 << 13, LineWords: 8, MissTime: 100 * time.Nanosecond}
	for _, n := range []int{1 << 13, 1 << 14, 1 << 15, 1 << 16} {
		keys := workload.Int64s(int64(n), n)
		tuned, _, v, err := m.TunedSortMisses(keys)
		if err != nil {
			return nil, fmt.Errorf("cache n=%d: %w", n, err)
		}
		naive, _ := m.NaiveSortMisses(n)
		ratio := "-"
		if tuned > 0 && naive > 0 {
			ratio = trace.FormatFloat(float64(naive) / float64(tuned))
		}
		t.AddRow(n, m.MWords, v, tuned, naive, ratio)
	}
	t.Notes = append(t.Notes,
		"tuned = line transfers measured by the simulation at B = cache line, M = cache",
		"naive = n·log n random accesses × miss probability (IRM); the gap grows with N/M — (M_I/B_I)^c ≥ N in action")
	return t, nil
}

// Sweep measures the paper's claim 6 — scalability in both p and D —
// on the sorting workload: per-processor parallel I/O as p doubles, and
// total parallel I/O as D doubles.
func Sweep(s Scale) (*trace.Table, error) {
	t := &trace.Table{
		Title:   "Claim 6 — scalability: per-processor I/O vs p, total I/O vs D (sorting)",
		Columns: []string{"N", "v", "p", "D", "I/Os total", "I/Os per proc", "comm items"},
	}
	keys := workload.Int64s(1, s.N)
	for _, p := range []int{1, 2, 4, 8} {
		if s.V%p != 0 {
			continue
		}
		cfg := core.Config{V: s.V, P: p, D: 2, B: s.B, Recorder: s.Rec, PipelineDepth: s.Depth}
		_, res, err := sortalg.EMSort(keys, wordcodec.I64{}, cfg)
		if err != nil {
			return nil, fmt.Errorf("sweep p=%d: %w", p, err)
		}
		var maxOps int64
		for _, st := range res.IOPerProc {
			if st.ParallelOps > maxOps {
				maxOps = st.ParallelOps
			}
		}
		t.AddRow(s.N, s.V, p, 2, res.IO.ParallelOps, maxOps, res.CommItems)
	}
	for _, d := range []int{1, 2, 4, 8} {
		cfg := core.Config{V: s.V, P: s.P, D: d, B: s.B, Recorder: s.Rec, PipelineDepth: s.Depth}
		_, res, err := sortalg.EMSort(keys, wordcodec.I64{}, cfg)
		if err != nil {
			return nil, fmt.Errorf("sweep d=%d: %w", d, err)
		}
		var maxOps int64
		for _, st := range res.IOPerProc {
			if st.ParallelOps > maxOps {
				maxOps = st.ParallelOps
			}
		}
		t.AddRow(s.N, s.V, s.P, d, res.IO.ParallelOps, maxOps, res.CommItems)
	}
	t.Notes = append(t.Notes,
		"per-processor I/O halves with each doubling of p (v/p contexts each) — Theorem 3's v/p factor",
		"total I/O halves with each doubling of D — fully parallel disk access")
	return t, nil
}
