package experiments

import (
	"fmt"
	"testing"

	"repro/internal/cgm"
	"repro/internal/permute"
	"repro/internal/rec"
	"repro/internal/sortalg"
	"repro/internal/workload"
)

// TestAlgorithmsAreConformingCGM certifies that the fundamental programs
// really are CGM algorithms — h = O(N/v) per round and μ = O(N/v)
// contexts — the precondition of the simulation theorems. The allowed
// constants: sorting may hold up to ~2.5·N/v after bucket exchange
// (regular sampling) and every VP gathers v² samples.
func TestAlgorithmsAreConformingCGM(t *testing.T) {
	const v, n = 8, 1 << 13

	check := func(name string, s cgm.Stats, hMax, muMax float64) {
		t.Helper()
		c := cgm.Conform(s, n)
		if err := c.Check(hMax, muMax); err != nil {
			t.Errorf("%s: %v (λ=%d, h=%.2f, μ=%.2f)", name, err, c.Rounds, c.HFactor, c.MuFactor)
		}
	}

	keys := workload.Int64s(1, n)
	res, err := cgm.Run[int64](sortalg.Sorter[int64]{}, v, cgm.Scatter(keys, v))
	if err != nil {
		t.Fatal(err)
	}
	check("sort (PSRS)", res.Stats, 2.5, 2.7)

	items := make([]permute.Item, n)
	dests := workload.Permutation(2, n)
	for i := range items {
		items[i] = permute.Item{Dest: dests[i], Val: keys[i]}
	}
	pres, err := cgm.Run[permute.Item](permute.New(n), v, cgm.Scatter(items, v))
	if err != nil {
		t.Fatal(err)
	}
	check("permutation", pres.Stats, 1.5, 1.5)

	recs := make([]rec.R, n)
	for i := range recs {
		recs[i] = rec.R{A: int64(i), X: float64(keys[i])}
	}
	// The geometry's record sort is the same PSRS under rec.Compare: the
	// same limits, and the same three rounds.
	rres, err := cgm.Run[rec.R](sortalg.SorterFunc[rec.R]{Cmp: rec.Compare}, v, cgm.Scatter(recs, v))
	if err != nil {
		t.Fatal(err)
	}
	check("record sort (PSRS under rec.Compare)", rres.Stats, 2.5, 2.7)
	if rres.Stats.Rounds != 3 {
		t.Errorf("record sort: λ = %d, want 3", rres.Stats.Rounds)
	}
}

// TestTournamentIsNotConforming documents why the tournament sorter is
// only an ablation: it violates the CGM memory constraint (the last merge
// holds all N items).
func TestTournamentIsNotConforming(t *testing.T) {
	const v, n = 8, 1 << 12
	keys := workload.Int64s(3, n)
	res, err := cgm.Run[int64](sortalg.TournamentSorter[int64]{}, v, cgm.Scatter(keys, v))
	if err != nil {
		t.Fatal(err)
	}
	c := cgm.Conform(res.Stats, n)
	if c.MuFactor < float64(v)*0.9 {
		t.Errorf("tournament μ factor = %.2f; expected ≈ v = %d (the violation is its point)", c.MuFactor, v)
	}
	if err := c.Check(2.5, 2.7); err == nil {
		t.Error("tournament sorter unexpectedly conforms to CGM constraints")
	}
}

// TestFigureTablesMatchPaperReadings asserts the analytic figures hit the
// paper's stated values exactly.
func TestFigureTablesMatchPaperReadings(t *testing.T) {
	f6 := Fig6()
	// Row v=10000: c=2 → 1e11, c=3 → 1e9 (the paper's Section 1.4 readings).
	var row []string
	for _, r := range f6.Rows {
		if r[0] == "10000" {
			row = r
		}
	}
	if row == nil {
		t.Fatal("Fig6 lacks v=10000 row")
	}
	if row[1] != "1e+11" || row[2] != "1e+09" {
		t.Errorf("Fig6 v=10⁴ readings = %v, want 1e+11 / 1e+09", row[1:3])
	}
	f7 := Fig7()
	for _, r := range f7.Rows {
		if r[0] == "100" && r[1] != "1e+07" {
			t.Errorf("Fig7 v=100 = %s, want 1e+07 (≈10 mega-items)", r[1])
		}
	}
	f8 := Fig8()
	if len(f8.Rows) < 8 {
		t.Errorf("Fig8 has %d rows", len(f8.Rows))
	}
}

// TestFig3ShowsCrossover pins the Figure 3 shape: below the memory knee
// the VM model wins (ratio < 1); past it the EM-CGM simulation wins by
// orders of magnitude.
func TestFig3ShowsCrossover(t *testing.T) {
	s := Scale{N: 1 << 14, V: 4, P: 2, B: 128}
	tb, err := Fig3(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 4 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	first := tb.Rows[0][4]
	last := tb.Rows[len(tb.Rows)-1][4]
	var fr, lr float64
	fmt.Sscanf(first, "%f", &fr)
	fmt.Sscanf(last, "%f", &lr)
	if fr >= 1 {
		t.Errorf("below the knee VM/EM ratio = %v, want < 1 (VM faster in memory)", fr)
	}
	if lr < 50 {
		t.Errorf("past the knee VM/EM ratio = %v, want ≫ 1 (VM thrashing)", lr)
	}
}
