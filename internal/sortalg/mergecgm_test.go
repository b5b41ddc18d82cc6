package sortalg

import (
	"testing"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/wordcodec"
	"repro/internal/workload"
)

func TestTournamentSorterCorrect(t *testing.T) {
	for _, v := range []int{1, 2, 3, 4, 8} {
		for _, n := range []int{0, 1, 10, 500} {
			in := workload.Int64s(int64(v*100+n), n)
			res, err := cgm.Run[int64](TournamentSorter[int64]{}, v, cgm.Scatter(in, v))
			if err != nil {
				t.Fatalf("v=%d n=%d: %v", v, n, err)
			}
			checkSorted(t, "tournament", res.Output(), in)
			if v > 1 && res.Stats.Rounds != tournamentRounds(v)+1 {
				t.Errorf("v=%d: rounds = %d, want %d", v, res.Stats.Rounds, tournamentRounds(v)+1)
			}
		}
	}
}

// The round-count ablation (Theorem 2's λ factor): every round swaps the
// live data once, so at equal N the sorter with more rounds pays more EM
// I/O — the tournament's ⌈log₂ v⌉ + 1 rounds equal PSRS's three at v = 4,
// where the two cost about the same, and are two more at v = 16 — and the
// gap widens with v.
func TestRoundAblationPSRSvsTournament(t *testing.T) {
	const n = 1 << 15
	in := workload.Int64s(9, n)
	gap := map[int]float64{}
	for _, v := range []int{4, 16} {
		cfgP := EMSortConfig(core.Config{V: v, P: 1, D: 2, B: 64}, n)
		psrs, err := core.RunSeq[int64](Sorter[int64]{}, wordcodec.I64{}, cfgP, cgm.Scatter(in, v))
		if err != nil {
			t.Fatal(err)
		}
		cfgT := core.Config{V: v, P: 1, D: 2, B: 64, MaxMsgItems: n}
		tour, err := core.RunSeq[int64](TournamentSorter[int64]{}, wordcodec.I64{}, cfgT, cgm.Scatter(in, v))
		if err != nil {
			t.Fatal(err)
		}
		checkSorted(t, "psrs", psrs.Output(), in)
		checkSorted(t, "tournament", tour.Output(), in)
		if psrs.Rounds != 3 || tour.Rounds != tournamentRounds(v)+1 {
			t.Errorf("v=%d: PSRS took %d rounds and the tournament %d, want 3 and %d", v, psrs.Rounds, tour.Rounds, tournamentRounds(v)+1)
		}
		if tour.Rounds > psrs.Rounds && tour.IO.ParallelOps <= psrs.IO.ParallelOps {
			t.Errorf("v=%d: tournament %d rounds, %d I/Os; PSRS %d rounds, %d I/Os: the I/O does not follow λ",
				v, tour.Rounds, tour.IO.ParallelOps, psrs.Rounds, psrs.IO.ParallelOps)
		}
		gap[v] = float64(tour.IO.ParallelOps) / float64(psrs.IO.ParallelOps)
	}
	t.Logf("tournament / PSRS parallel I/Os: %.2f at v = 4, %.2f at v = 16", gap[4], gap[16]) // EXPERIMENTS.md's λ-ablation row
	if gap[16] <= gap[4] {
		t.Errorf("λ = O(log v) penalty not growing with v: %v", gap)
	}
}
