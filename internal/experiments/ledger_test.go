package experiments

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/pdm"
)

// TestFig5LedgerReconciles runs the full Figure 5 table — Group A's
// sort/permute/transpose at N and 2N plus the Group B/C composite
// algorithms, every one of whose phases is its own driver run — with a
// cost-model ledger attached, and requires the Theorem 2/3 prediction
// to match the measured parallel I/Os bit-exactly on every run. This is
// the experiments-level version of the costmodel reconciliation test:
// it covers the machines and message geometries the paper's table
// actually uses, at CI scale.
func TestFig5LedgerReconciles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole Figure 5 table")
	}
	s := DefaultScale()
	s.N = 1 << 13
	s.Rec = obs.NewRecorder()
	s.Ledger = costmodel.NewLedger(pdm.DefaultTimeModel())
	if _, err := Fig5(s); err != nil {
		t.Fatalf("fig5: %v", err)
	}
	if err := s.Ledger.Reconcile(); err != nil {
		t.Fatalf("reconcile: %v", err)
	}
	runs := s.Ledger.Runs()
	if len(runs) < 10 {
		t.Fatalf("ledger recorded %d runs, expected the full Figure 5 table (> 10)", len(runs))
	}
	for i, r := range runs {
		if r.PredOps != r.Totals.ParallelOps {
			t.Errorf("run %d (%s): predicted %d parallel I/Os, measured %d",
				i, r.Name, r.PredOps, r.Totals.ParallelOps)
		}
	}
}

// TestFiguresLedgerEveryRun holds the sorting figures to Scale.Ledger's
// contract: with a ledger attached, each EM-CGM run of Figures 3 and 4
// and of the scalability sweep is recorded, and every one reconciles.
func TestFiguresLedgerEveryRun(t *testing.T) {
	for _, fig := range []Figure{{"3", Fig3}, {"4", Fig4}, {"sweep", Sweep}} {
		s := Scale{N: 1 << 12, V: 4, P: 2, B: 64, Rec: obs.NewRecorder(),
			Ledger: costmodel.NewLedger(pdm.DefaultTimeModel())}
		tb, err := fig.Make(s)
		if err != nil {
			t.Fatalf("%s: %v", fig.Key, err)
		}
		if n := len(s.Ledger.Runs()); n != len(tb.Rows) {
			t.Errorf("%s: ledger recorded %d runs, the table has %d rows of one run each", fig.Key, n, len(tb.Rows))
		}
		if err := s.Ledger.Reconcile(); err != nil {
			t.Errorf("%s: reconcile: %v", fig.Key, err)
		}
	}
}

// TestFig5LedgerDepth holds every Figure 5 run, composite phases
// included, to Scale.Depth: at depth 1 the ledger records each run on
// the synchronous schedule.
func TestFig5LedgerDepth(t *testing.T) {
	s := Scale{N: 1 << 12, V: 4, P: 2, B: 64, Depth: 1, Rec: obs.NewRecorder(),
		Ledger: costmodel.NewLedger(pdm.DefaultTimeModel())}
	if _, err := Fig5(s); err != nil {
		t.Fatal(err)
	}
	runs := s.Ledger.Runs()
	if len(runs) == 0 {
		t.Fatal("ledger recorded no runs")
	}
	for i, r := range runs {
		if r.Machine.Depth != 1 {
			t.Errorf("run %d (%s): depth %d, want 1", i, r.Name, r.Machine.Depth)
		}
	}
	if err := s.Ledger.Reconcile(); err != nil {
		t.Errorf("reconcile: %v", err)
	}
}
