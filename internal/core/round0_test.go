package core_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/workload"
)

// TestInitCheckedEquivalence runs the input distribution — round 0, which
// computes on what Init left and begins every context's first write as
// write-behind — under CheckedIO: read-before-write validation on,
// use-after-begin poison armed on every loaned context image. echo never
// touches its state again, so those first writes are the only context
// writes of the run and every later round reads them back. At each ring
// depth outputs and the full accounting must equal depth 1's, where every
// context write is waited before the next VP is initialised (and each arm
// must match the in-memory runtime and reconcile its ledger; see
// depthArms).
func TestInitCheckedEquivalence(t *testing.T) {
	const v, n = 8, 1 << 9
	parts := cgm.Scatter(workload.Int64s(3, n), v)
	want := reference[int64](t, "echo", echo{}, v, parts)
	for _, m := range []struct {
		seq bool
		p   int
	}{{true, 1}, {false, 1}, {false, 4}} {
		base := core.Config{V: v, P: m.p, D: 2, B: 8, MaxMsgItems: n/v + 4, CheckedIO: true}
		depthArms(t, fmt.Sprintf("checked seq=%v p=%d", m.seq, m.p), want, base, []int{2, 8},
			func(cfg core.Config) (*core.Result[int64], error) {
				return runMachine(m.seq, sized[int64]{echo{}, n/v + 4}, cfg, parts)
			})
	}
}

// TestInitStallRecorded pins the observability contract of the input
// distribution now that it is round 0: there is no init row and no span of
// an init phase, a round-0 row begins no read (its context operations are
// its one context write, whatever the ring depth), the time round 0 spends
// blocked on its first writes is stored like any other stall — spans named
// for the ring depth in the wait category and part of Result.Stall — and
// without a Recorder nothing is timed.
func TestInitStallRecorded(t *testing.T) {
	const v, n, b = 4, 64, 8
	parts := cgm.Scatter(workload.Int64s(3, n), v)
	slow := func(proc, disk int) pdm.Disk { return pdm.NewDelayDisk(pdm.NewMemDisk(b), 200*time.Microsecond) }

	for _, m := range []struct {
		seq bool
		p   int
	}{{true, 1}, {false, 2}} {
		round0 := func(depth int, newDisk func(proc, disk int) pdm.Disk) ([]obs.SuperstepIO, *core.Result[int64], *obs.Recorder) {
			rec := obs.NewRecorder()
			cfg := core.Config{V: v, P: m.p, D: 2, B: b, MaxMsgItems: n/v + 4,
				PipelineDepth: depth, Recorder: rec, NewDisk: newDisk}
			res, err := runMachine(m.seq, sized[int64]{echo{}, n/v + 4}, cfg, parts)
			if err != nil {
				t.Fatalf("seq=%v depth=%d: %v", m.seq, depth, err)
			}
			rows := make([]obs.SuperstepIO, v)
			for _, s := range rec.Supersteps() {
				if s.Label != "superstep" && s.Label != "route" {
					t.Fatalf("seq=%v depth=%d: row labelled %q", m.seq, depth, s.Label)
				}
				if s.Label == "superstep" && s.Round == 0 {
					rows[s.VP] = s
				}
			}
			return rows, res, rec
		}
		want, _, _ := round0(1, nil)
		got, res, rec := round0(0, slow)
		for j := range want {
			// 16 words of context: 2 blocks over 2 disks, written once.
			if want[j].CtxOps != 1 || want[j].Blocks < 2 {
				t.Errorf("seq=%v vp %d: round-0 row %+v, want the 1 operation of one context write", m.seq, j, want[j])
			}
			if got[j].CtxOps != want[j].CtxOps || got[j].MsgOps != want[j].MsgOps || got[j].Blocks != want[j].Blocks || got[j].Proc != want[j].Proc {
				t.Errorf("seq=%v vp %d: round-0 row %+v, want the synchronous schedule's %+v", m.seq, j, got[j], want[j])
			}
		}
		var stall float64 // µs
		for _, e := range traceEvents(t, rec) {
			if e.Cat == "init" {
				t.Errorf("seq=%v: span %q in an init category", m.seq, e.Name)
			}
			if e.Cat == "wait" && e.Name != "barrier wait" {
				if want := fmt.Sprintf("stall k=%d", res.Depth); e.Name != want {
					t.Errorf("seq=%v: wait span %q, want %q", m.seq, e.Name, want)
				}
				stall += e.Dur
			}
		}
		if stall <= 0 {
			t.Errorf("seq=%v: no time recorded in stall spans on a 200µs disk", m.seq)
		}
		if res.Stall <= 0 {
			t.Errorf("seq=%v: Result.Stall = %v on a 200µs disk", m.seq, res.Stall)
		}

		cfg := core.Config{V: v, P: m.p, D: 2, B: b, MaxMsgItems: n/v + 4, NewDisk: slow}
		plain, err := runMachine(m.seq, sized[int64]{echo{}, n/v + 4}, cfg, parts)
		if err != nil {
			t.Fatalf("seq=%v unrecorded: %v", m.seq, err)
		}
		if plain.Stall != 0 {
			t.Errorf("seq=%v: unrecorded run reports Stall = %v", m.seq, plain.Stall)
		}
	}
}
