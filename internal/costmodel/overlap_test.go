package costmodel

import (
	"testing"
	"time"

	"repro/internal/pdm"
)

// TestAutoDepth pins the static depth policy: positioning-dominated
// models get the deep end, pure-transfer and zero models the shallow end,
// a model whose positioning costs a transfer or more at least the paired
// depth, and the result is always inside [2, 8].
func TestAutoDepth(t *testing.T) {
	// The 1990s default model: 10ms seek against a 5MB/s transfer —
	// positioning dominates any sane block size, so auto maxes out.
	if k := AutoDepth(pdm.DefaultTimeModel(), 512); k != autoDepthMax {
		t.Errorf("default model B=512: k = %d, want %d", k, autoDepthMax)
	}
	// At B = 4096 a block's transfer (6.6ms) is under half its positioning
	// (14.2ms): amortising alone asks for 3, the pair floor for 4.
	if k := AutoDepth(pdm.DefaultTimeModel(), 4096); k != autoDepthPaired {
		t.Errorf("default model B=4096: k = %d, want %d", k, autoDepthPaired)
	}
	// Pure transfer (no positioning): nothing to amortise, the floor.
	flat := pdm.TimeModel{TransferBytesPerSec: 5e6}
	for _, b := range []int{512, 4096} {
		if k := AutoDepth(flat, b); k != autoDepthMin {
			t.Errorf("pure transfer B=%d: k = %d, want %d", b, k, autoDepthMin)
		}
	}
	// No positioning and no transfer rate (in-memory and buffered file
	// disks, as core's auto depth prices them): nothing to amortise, the
	// floor.
	if k := AutoDepth(pdm.TimeModel{}, 512); k != autoDepthMin {
		t.Errorf("zero model: k = %d, want %d", k, autoDepthMin)
	}
	// Transfer dominates positioning (1ms against 8ms): no pair floor.
	if k := AutoDepth(pdm.TimeModel{Seek: time.Millisecond, TransferBytesPerSec: 512e3}, 512); k != autoDepthMin {
		t.Errorf("transfer-bound model: k = %d, want %d", k, autoDepthMin)
	}
	// Degenerate model (zero transfer rate → BlockTime is all
	// positioning): still clamped to the maximum, never unbounded.
	if k := AutoDepth(pdm.TimeModel{Seek: time.Millisecond}, 64); k != autoDepthMax {
		t.Errorf("degenerate model: k = %d, want %d", k, autoDepthMax)
	}
	// Middle of the range: positioning ≈ 2.5 transfers → k = 3, raised to
	// the pair floor.
	mid := pdm.TimeModel{Seek: 10 * time.Millisecond, TransferBytesPerSec: float64(8 * 512 * 250)}
	if k := AutoDepth(mid, 512); k != autoDepthPaired {
		t.Errorf("mid model: k = %d, want %d", k, autoDepthPaired)
	}
}

// TestModelWallPipelined pins the shape of the predicted stall curve:
// stall is non-increasing in k, the synchronous point (k=1) pays the
// whole I/O time, and a deep enough window on a compute-heavy run hides
// the I/O entirely.
func TestModelWallPipelined(t *testing.T) {
	r := Run{
		Machine: Machine{Par: true, V: 16, P: 4, D: 2, B: 64, Rounds: 4},
		PredOps: 4096,
	}
	tm := pdm.DefaultTimeModel()
	compute := 5 * time.Millisecond

	var pts []OverlapPoint
	for _, k := range []int{1, 2, 4, 8, 16} {
		pts = append(pts, r.ModelWallPipelined(tm, compute, k))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Stall > pts[i-1].Stall {
			t.Errorf("stall not monotone: k=%d stall %v > k=%d stall %v",
				pts[i].Depth, pts[i].Stall, pts[i-1].Depth, pts[i-1].Stall)
		}
	}
	// k=1 is the synchronous schedule: its stall is the run's whole
	// modelled I/O time per processor at unbatched service times.
	steps := r.Machine.Rounds * r.Machine.LocalV()
	perProc := r.PredOps / int64(r.Machine.P)
	wantSync := time.Duration(float64(perProc) * float64(tm.BatchTime(r.Machine.B, 1)))
	got := pts[0].Stall
	if diff := got - wantSync; diff < -time.Duration(steps) || diff > time.Duration(steps) {
		t.Errorf("k=1 stall = %v, want ≈ %v (whole modelled I/O time)", got, wantSync)
	}
	if pts[0].StallFrac <= pts[len(pts)-1].StallFrac {
		t.Errorf("stall frac did not fall with depth: k=1 %.3f vs k=16 %.3f",
			pts[0].StallFrac, pts[len(pts)-1].StallFrac)
	}

	// Compute far above the per-step I/O: any real window hides it all.
	huge := r.ModelWallPipelined(tm, time.Hour, 4)
	if huge.Stall != 0 {
		t.Errorf("compute-bound run: stall = %v, want 0", huge.Stall)
	}

	// Degenerate machine: no steps, no panic.
	empty := Run{Machine: Machine{Par: true, V: 4, P: 4, D: 1, B: 8}}
	if pt := empty.ModelWallPipelined(tm, compute, 4); pt.Stall != 0 || pt.Depth != 4 {
		t.Errorf("empty run: point = %+v, want zero stall at depth 4", pt)
	}
}
