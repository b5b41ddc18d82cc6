package core_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/sortalg"
	"repro/internal/workload"
)

// TestRingHoldsOnlyLive: a run holds the live prefix of what it moves, not
// the declared bounds. M is charged K worst-case working sets (a context of
// MaxCtxItems and v messages of MaxMsgItems per ring slot), but a slot's
// images grow only to the largest live prefix they meet and a decode arena
// only to the largest inbox. So declaring bounds eight times what the sort
// needs moves the disk addresses apart and leaves the run's own memory
// alone: it allocates within a quarter of what it does at the bounds it
// needs (≈ 1.07× on both machines; what is left is the per-disk queues
// and the track tables, which follow the addresses). Slots sized for the
// bounds, K of them, take it to ≈ 2.4×.
func TestRingHoldsOnlyLive(t *testing.T) {
	const v, n = 8, 1 << 15
	keys := workload.Int64s(5, n)
	parts := cgm.Scatter(keys, v)
	for _, seq := range []bool{true, false} {
		base := core.Config{V: v, P: 1, D: 2, B: 512}
		run := func(cfg core.Config) (res *core.Result[int64], alloc uint64) {
			t.Helper()
			var before, after runtime.MemStats
			var err error
			core.AtProcs(1, func() {
				runtime.GC()
				runtime.ReadMemStats(&before)
				res, err = runMachine(seq, sortalg.Sorter[int64]{}, sortalg.EMSortConfig(cfg, n), parts)
				runtime.ReadMemStats(&after)
			})
			if err != nil {
				t.Fatalf("seq=%v: %v", seq, err)
			}
			return res, after.TotalAlloc - before.TotalAlloc
		}
		// What the sort needs: the largest context and message it holds.
		probe, _ := run(base)
		need := base
		need.MaxCtxItems, need.MaxMsgItems = probe.MaxCtxObserved, probe.MaxMsgObserved
		loose := need
		loose.MaxCtxItems, loose.MaxMsgItems = 8*need.MaxCtxItems, 8*need.MaxMsgItems

		tight, tightB := run(need)
		wide, wideB := run(loose)
		tag := fmt.Sprintf("seq=%v", seq)
		sameOutputs(t, tag, wide.Outputs, tight.Outputs)
		if 4*wideB > 5*tightB {
			t.Errorf("%s: %d bytes allocated at 8× the bounds it needs (μ = %d, %d per message), %d at 1×: %.2f×, want ≤ 1.25×",
				tag, wideB, need.MaxCtxItems, need.MaxMsgItems, tightB, float64(wideB)/float64(tightB))
		}
		t.Logf("%s: %d bytes at 1×, %d at 8× (%.2f×)", tag, tightB, wideB, float64(wideB)/float64(tightB))
	}
}
