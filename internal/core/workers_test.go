package core_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/sortalg"
	"repro/internal/workload"
)

// TestComputeWorkersInvariant pins what computing c virtual processors of a
// real processor at once may change: nothing the model sees. c follows
// GOMAXPROCS (min(GOMAXPROCS ÷ p, ⌊K/2⌋ + 1, v/p)), so every arm runs at
// GOMAXPROCS 1 — c = 1, the synchronous compute — and at 2, 4 and 8, and
// each of those runs must reproduce the c = 1 run's outputs, IOStats,
// context/message split and bounds (equivResults), its ledger rows, and
// the (direction, track) sequence every disk served. The arms cover both
// machines, K ∈ {8, 3, 2, 1}, and plain, CheckedIO, and Balanced under a
// Recorder and Ledger. The relay rewrites every
// context every round, so a prefetch begun ahead of the previous VP's
// writes shows in the served order.
//
// The error arms fail VP 2 fast while VP 1 is still computing: the run
// must return the c = 1 run's error — the first failing VP's in commit
// order when both fail — with no transfer outliving the run and no
// goroutine left behind.
func TestComputeWorkersInvariant(t *testing.T) {
	const v, n = 8, 1 << 10
	keys := workload.Int64s(11, n)
	procs := []int{2, 4, 8}
	concurrent := 0 // arms that ran with c > 1

	type machine struct {
		seq bool
		p   int
	}
	for _, w := range []struct {
		name string
		prog cgm.Program[int64]
		cfg  core.Config
	}{
		{"relay", relay{}, core.Config{V: v, D: 2, B: 8}},
		{"sort", sortalg.Sorter[int64]{}, sortalg.EMSortConfig(core.Config{V: v, D: 2, B: 8}, n)},
	} {
		for _, m := range []machine{{true, 1}, {false, 1}, {false, 2}} {
			for _, k := range []int{8, 3, 2, 1} {
				for _, variant := range []string{"plain", "checked", "balanced"} {
					cfg := w.cfg
					cfg.P, cfg.PipelineDepth = m.p, k
					cfg.CheckedIO = variant == "checked"
					cfg.Balanced = variant == "balanced"
					parts := cgm.Scatter(keys, v)
					tag := fmt.Sprintf("%s/seq=%v/p=%d/k=%d/%s", w.name, m.seq, m.p, k, variant)

					run := func(g int) (*core.Result[int64], [][]access, []costmodel.Row) {
						t.Helper()
						cfg := cfg
						if cfg.Balanced {
							cfg.Recorder = obs.NewRecorder()
							cfg.Ledger = costmodel.NewLedger(pdm.DefaultTimeModel())
						}
						gtag := fmt.Sprintf("%s/gomaxprocs=%d", tag, g)
						var res *core.Result[int64]
						var served [][]access
						core.AtProcs(g, func() { res, served = servedRunOn(t, gtag, m.seq, w.prog, cfg, parts) })
						if want := max(min(g/m.p, res.Depth/2+1, v/m.p), 1); res.Workers != want {
							t.Fatalf("%s: Workers = %d, want %d", gtag, res.Workers, want)
						}
						if cfg.Ledger == nil {
							return res, served, nil
						}
						if err := cfg.Ledger.Reconcile(); err != nil {
							t.Errorf("%s: ledger: %v", gtag, err)
						}
						return res, served, ledgerRows(cfg.Ledger)
					}

					base, baseServed, baseRows := run(1)
					sameOutputs(t, tag, base.Outputs, reference(t, tag, w.prog, v, parts))
					for _, g := range procs {
						gtag := fmt.Sprintf("%s/gomaxprocs=%d", tag, g)
						res, served, rows := run(g)
						if res.Workers > 1 {
							concurrent++
						}
						equivResults(t, gtag, base, res)
						if !slices.Equal(rows, baseRows) {
							t.Errorf("%s: ledger rows differ from the c = 1 run's", gtag)
						}
						for i := range baseServed {
							if !slices.Equal(served[i], baseServed[i]) {
								t.Fatalf("%s: disk %d of proc %d served another sequence than the c = 1 run's", gtag, i%cfg.D, i/cfg.D)
							}
						}
					}
				}
			}
		}
	}
	if concurrent == 0 {
		t.Fatal("no arm computed more than one VP at once")
	}

	// The error arms.
	const maxItems = 15
	parts := cgm.Scatter(workload.Int64s(7, v*maxItems/2), v)
	mem := func(proc, disk int) pdm.Disk { return pdm.NewMemDisk(8) }
	for _, m := range []machine{{true, 1}, {false, 1}, {false, 2}} {
		for _, prog := range []stumble{
			{slow: 1, bad: []int{2}, how: "oversize"},
			{slow: 1, bad: []int{2}, how: "vote"},
			{slow: 1, bad: []int{1, 2}, how: "oversize"},
		} {
			cfg := core.Config{V: v, P: m.p, D: 2, B: 8, MaxMsgItems: maxItems, PipelineDepth: 8}
			tag := fmt.Sprintf("error/seq=%v/p=%d/%s%v", m.seq, m.p, prog.how, prog.bad)
			sp := sized[int64]{prog, maxItems}
			var want error
			core.AtProcs(1, func() { want = watchedProg(t, tag+"/gomaxprocs=1", m.seq, sp, cfg, mem, parts) })
			if want == nil {
				t.Fatalf("%s: the c = 1 run did not fail", tag)
			}
			for _, g := range procs {
				var err error
				core.AtProcs(g, func() { err = watchedProg(t, fmt.Sprintf("%s/gomaxprocs=%d", tag, g), m.seq, sp, cfg, mem, parts) })
				if err == nil || err.Error() != want.Error() {
					t.Errorf("%s/gomaxprocs=%d: err = %v, want the c = 1 run's %v", tag, g, err, want)
				}
			}
		}
	}
}

// ledgerRows returns the ledger's rows without their timing, ordered by
// (processor, round, VP): RunPar's processors record concurrently.
func ledgerRows(l *costmodel.Ledger) []costmodel.Row {
	var rows []costmodel.Row
	for _, r := range l.Runs() {
		for _, row := range r.Rows {
			row.StartNs, row.DurNs = 0, 0
			rows = append(rows, row)
		}
	}
	slices.SortStableFunc(rows, func(a, b costmodel.Row) int {
		if a.Proc != b.Proc {
			return a.Proc - b.Proc
		}
		if a.Round != b.Round {
			return a.Round - b.Round
		}
		return a.VP - b.VP
	})
	return rows
}

// stumble relays its partition for two rounds, but in round 1 VP slow
// computes for a while and every VP in bad fails at once: "oversize"
// sends a message one item over the slot bound, "vote" votes to stop a
// round early.
type stumble struct {
	slow int
	bad  []int
	how  string
}

func (stumble) Init(vp *cgm.VP[int64], input []int64) { vp.State = append([]int64(nil), input...) }
func (s stumble) Round(vp *cgm.VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	if round == 2 {
		return nil, true
	}
	out := make([][]int64, vp.V)
	out[(vp.ID+1)%vp.V] = vp.State
	if round == 1 {
		if vp.ID == s.slow {
			time.Sleep(20 * time.Millisecond)
		}
		if slices.Contains(s.bad, vp.ID) {
			if s.how == "vote" {
				return nil, true
			}
			out[(vp.ID+1)%vp.V] = make([]int64, 16) // MaxMsgItems is 15
		}
	}
	return out, false
}
func (stumble) Output(vp *cgm.VP[int64]) []int64 { return vp.State }
