package costmodel_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/permute"
	"repro/internal/sortalg"
	"repro/internal/transpose"
	"repro/internal/wordcodec"
	"repro/internal/workload"
)

// runWorkload executes one named workload on the given machine axis and
// returns the run's Result totals alongside the ledger that priced it.
func runWorkload(t *testing.T, workloadName string, seq bool, depth int) (*costmodel.Ledger, int64) {
	t.Helper()
	const n = 1 << 12
	v, p := 4, 2
	rec := obs.NewRecorder()
	led := costmodel.NewLedger(pdm.DefaultTimeModel())
	cfg := core.Config{V: v, P: p, D: 2, B: 64, PipelineDepth: depth, Recorder: rec, Ledger: led}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}

	var ops int64
	switch workloadName {
	case "sort":
		keys := workload.Int64s(1, n)
		scfg := sortalg.EMSortConfig(cfg, n)
		var res *core.Result[int64]
		var err error
		if seq {
			res, err = core.RunSeq[int64](sortalg.Sorter[int64]{}, wordcodec.I64{}, scfg, cgm.Scatter(keys, v))
		} else {
			res, err = core.RunPar[int64](sortalg.Sorter[int64]{}, wordcodec.I64{}, scfg, cgm.Scatter(keys, v))
		}
		if err != nil {
			t.Fatalf("sort: %v", err)
		}
		ops = res.IO.ParallelOps
	case "permute":
		vals := workload.Int64s(2, n)
		dests := workload.Permutation(3, n)
		items := make([]permute.Item, n)
		for i := range items {
			items[i] = permute.Item{Dest: dests[i], Val: vals[i]}
		}
		var res *core.Result[permute.Item]
		var err error
		if seq {
			res, err = core.RunSeq[permute.Item](permute.New(n), permute.Codec{}, cfg, cgm.Scatter(items, v))
		} else {
			res, err = core.RunPar[permute.Item](permute.New(n), permute.Codec{}, cfg, cgm.Scatter(items, v))
		}
		if err != nil {
			t.Fatalf("permute: %v", err)
		}
		ops = res.IO.ParallelOps
	case "transpose":
		k := 32
		l := n / k
		vals := workload.Int64s(4, k*l)
		items := make([]permute.Item, k*l)
		for i := range items {
			items[i] = permute.Item{Dest: int64(i), Val: vals[i]}
		}
		var res *core.Result[permute.Item]
		var err error
		if seq {
			res, err = core.RunSeq[permute.Item](transpose.New(k, l), permute.Codec{}, cfg, cgm.Scatter(items, v))
		} else {
			res, err = core.RunPar[permute.Item](transpose.New(k, l), permute.Codec{}, cfg, cgm.Scatter(items, v))
		}
		if err != nil {
			t.Fatalf("transpose: %v", err)
		}
		ops = res.IO.ParallelOps
	default:
		t.Fatalf("unknown workload %q", workloadName)
	}
	return led, ops
}

// TestLedgerReconciles is the tentpole invariant: for every workload ×
// machine × schedule combination the Theorem 2/3 prediction matches the
// measured parallel I/Os bit-exactly, row by row and in total.
func TestLedgerReconciles(t *testing.T) {
	for _, w := range []string{"sort", "permute", "transpose"} {
		for _, seq := range []bool{true, false} {
			// pipe=false: the synchronous schedule; pipe=true: auto, a
			// ping-pong on these in-memory disks; k=4: the whole ring v
			// allows.
			for _, depth := range []int{1, 0, 4} {
				name := fmt.Sprintf("%s/seq=%v/pipe=%v", w, seq, depth != 1)
				if depth > 1 {
					name = fmt.Sprintf("%s/seq=%v/k=%d", w, seq, depth)
				}
				t.Run(name, func(t *testing.T) {
					led, ops := runWorkload(t, w, seq, depth)
					runs := led.Runs()
					if len(runs) != 1 {
						t.Fatalf("ledger recorded %d runs, want 1", len(runs))
					}
					if err := led.Reconcile(); err != nil {
						t.Fatalf("reconcile: %v", err)
					}
					if runs[0].PredOps != ops {
						t.Fatalf("predicted %d parallel I/Os, measured %d", runs[0].PredOps, ops)
					}
					if runs[0].WallNs <= 0 {
						t.Fatalf("run wall = %d ns, want > 0", runs[0].WallNs)
					}
					if len(runs[0].Rows) == 0 {
						t.Fatal("no rows recorded")
					}
				})
			}
		}
	}
}

// TestLedgerModelTracksDelayDisk is the stated modelled-vs-measured
// tolerance: on a fixed-delay DelayDisk, after calibrating the TimeModel
// from the run's own per-disk samples, the ledger's modelled wall time
// must land within 30% of the measured wall time on the synchronous
// sequential schedule (PipelineDepth 1), where ModelWall's price — one
// OpTime per parallel I/O — is the critical path. Depth 1 still begins a
// VP's whole context and inbox before it waits, and a batch-capable disk
// would serve such a burst in one call (one sleep, one timer overshoot),
// which that price does not model; the disks are therefore wrapped in
// perTrack, so every track is its own device call.
func TestLedgerModelTracksDelayDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("sleeps real time")
	}
	const n = 1 << 10
	const delay = 300 * time.Microsecond
	v := 4
	rec := obs.NewRecorder()
	led := costmodel.NewLedger(pdm.DefaultTimeModel())
	cfg := core.Config{V: v, P: 1, D: 2, B: 64, PipelineDepth: 1,
		Recorder: rec, Ledger: led,
		NewDisk: func(proc, disk int) pdm.Disk {
			return perTrack{pdm.NewDelayDisk(pdm.NewMemDisk(64), delay)}
		}}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	vals := workload.Int64s(5, n)
	dests := workload.Permutation(6, n)
	items := make([]permute.Item, n)
	for i := range items {
		items[i] = permute.Item{Dest: dests[i], Val: vals[i]}
	}
	res, err := core.RunSeq[permute.Item](permute.New(n), permute.Codec{}, cfg, cgm.Scatter(items, v))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := led.Reconcile(); err != nil {
		t.Fatalf("reconcile: %v", err)
	}
	tm, err := costmodel.Calibrate(led, rec, cfg.B)
	if err != nil {
		t.Fatalf("calibrate: %v", err)
	}
	// The fitted per-block time reflects the *actual* service time —
	// configured delay plus timer overshoot (time.Sleep(300µs) can run
	// long under a coarse kernel tick) plus the MemDisk copy — so only
	// the lower bound is exact. Tracking reality rather than the nominal
	// parameter is the point of calibrating.
	if bt := tm.BlockTime(cfg.B); bt < delay {
		t.Fatalf("calibrated block time %v below the configured delay %v", bt, delay)
	}
	run := led.Runs()[0]
	model := run.ModelWall(tm)
	meas := time.Duration(run.WallNs)
	ratio := float64(model) / float64(meas)
	t.Logf("ops=%d model=%v measured=%v ratio=%.3f", res.IO.ParallelOps, model, meas, ratio)
	if ratio < 0.70 || ratio > 1.30 {
		t.Fatalf("modelled wall %v vs measured %v: ratio %.3f outside [0.70, 1.30]", model, meas, ratio)
	}
}

// perTrack hides a disk's batch methods (embedding the interface promotes
// only pdm.Disk's), so the array's workers serve it one track per call.
type perTrack struct{ pdm.Disk }

// TestPredictWhatIsNotMoved prices hand-made sizes, so that each rule of
// what the engine does not move is held to a number worked out on paper:
// two virtual processors on one disk with blocks of 4 words, three rounds,
// no messages. VP 0 keeps 7 items throughout (8 words, 2 blocks) and its
// middle round leaves them as it found them; VP 1 starts empty, holds 3
// items (1 block) after round 0 and is empty again after round 1. A last
// case prices a context that fills whole blocks.
func TestPredictWhatIsNotMoved(t *testing.T) {
	sz := costmodel.NewSizes(2)
	for r := 0; r < 3; r++ {
		sz.AddRound()
	}
	sz.Ctx[0][0], sz.Ctx[1][0], sz.Ctx[2][0] = 7, 7, 7
	sz.Ctx[1][1] = 3
	// Round 0 is never clean, whatever the flag says: nothing is on disk yet.
	sz.Same[0][0], sz.Same[1][0] = true, true
	for _, par := range []bool{false, true} {
		m := costmodel.Machine{Par: par, V: 2, P: 1, D: 1, B: 4, CB: 4, BPM: 1, Rounds: 3, Words: 1}
		ctx, msg := costmodel.Predict(m, sz)
		// VP 0: round 0 writes 2; round 1 reads 2 and writes nothing; the
		// terminal round reads 2. VP 1: round 0 reads nothing and writes 1;
		// round 1 reads 1 and writes the empty context as no block; the
		// terminal round reads none.
		if want := int64(2 + 2 + 2 + 1 + 1); ctx != want || msg != 0 {
			t.Errorf("par=%v: predicted %d context and %d message ops, want %d and 0", par, ctx, msg, want)
		}
	}

	// A context of exactly c·B one-word items occupies c blocks, no more:
	// here c = 4 blocks of 4 words on two disks, ⌈4/2⌉ = 2 operations a
	// move. It changes in every round, so it moves four times: round 0
	// writes it, round 1 reads and rewrites it, the terminal round reads it.
	full := costmodel.NewSizes(1)
	for r := 0; r < 3; r++ {
		full.AddRound()
	}
	full.Ctx[0][0], full.Ctx[1][0], full.Ctx[2][0] = 16, 16, 16
	for _, par := range []bool{false, true} {
		m := costmodel.Machine{Par: par, V: 1, P: 1, D: 2, B: 4, CB: 4, BPM: 1, Rounds: 3, Words: 1}
		if ctx, _ := costmodel.Predict(m, full); ctx != 4*2 {
			t.Errorf("par=%v: a context of 4 whole blocks on 2 disks: predicted %d context ops, want %d", par, ctx, 4*2)
		}
	}
}

// TestFitTimeModelRecoversBatchModel feeds synthetic samples generated
// from a known (position, transfer) pair and checks the least-squares
// fit recovers both parameters.
func TestFitTimeModelRecoversBatchModel(t *testing.T) {
	const posNs, perNs = 2_000_000, 125_000 // 2 ms positioning, 125 µs/track
	acc := &obs.FitAcc{}
	// Mixed batch shapes so the two columns are independent.
	for i := 0; i < 100; i++ {
		for _, s := range []struct{ runs, k int }{{1, 1}, {1, 4}, {2, 6}, {3, 3}, {1, 8}} {
			acc.Observe(s.runs, s.k, int64(s.runs)*posNs+int64(s.k)*perNs)
		}
	}
	snap := acc.Snapshot()
	tm, err := costmodel.FitTimeModel(512, []obs.FitSnapshot{snap})
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	if got := float64(tm.Seek.Nanoseconds()); got < 0.99*posNs || got > 1.01*posNs {
		t.Fatalf("fitted positioning %v ns, want ≈ %v", got, posNs)
	}
	gotPer := float64(8*512) * 1e9 / tm.TransferBytesPerSec
	if gotPer < 0.99*perNs || gotPer > 1.01*perNs {
		t.Fatalf("fitted per-track %v ns, want ≈ %v", gotPer, perNs)
	}
	// BatchTime must reproduce a held-out sample exactly in shape.
	want := time.Duration(posNs + 5*perNs)
	if got := tm.BatchTime(512, 5); got < want-time.Microsecond || got > want+time.Microsecond {
		t.Fatalf("BatchTime(512,5) = %v, want ≈ %v", got, want)
	}
}

// TestFitTimeModelDegenerate: when every sample has runs == tracks the
// positioning column is collinear and the fit must collapse to the
// one-parameter per-track model rather than produce garbage.
func TestFitTimeModelDegenerate(t *testing.T) {
	acc := &obs.FitAcc{}
	for i := 0; i < 50; i++ {
		acc.Observe(1, 1, 400_000)
	}
	tm, err := costmodel.FitTimeModel(64, []obs.FitSnapshot{acc.Snapshot()})
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	if tm.Seek != 0 {
		t.Fatalf("degenerate fit should have zero positioning, got %v", tm.Seek)
	}
	if bt := tm.BlockTime(64); bt < 399*time.Microsecond || bt > 401*time.Microsecond {
		t.Fatalf("block time %v, want ≈ 400µs", bt)
	}
}

func TestValidateRejectsLedgerWithoutRecorder(t *testing.T) {
	cfg := core.Config{V: 4, P: 2, D: 2, B: 64, Ledger: costmodel.NewLedger(pdm.DefaultTimeModel())}
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted a Ledger without a Recorder")
	}
}

// TestLedgerJSONRoundTrip pins the export schema version and shape.
func TestLedgerJSONRoundTrip(t *testing.T) {
	led, _ := runWorkload(t, "permute", true, 1)
	var buf bytes.Buffer
	if err := led.WriteJSON(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	var out struct {
		Version int `json:"version"`
		Runs    []struct {
			PredOps     int64 `json:"predOps"`
			ModelWallNs int64 `json:"modelWallNs"`
			Rows        []struct {
				Label string `json:"label"`
			} `json:"rows"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Version != costmodel.LedgerVersion {
		t.Fatalf("version %d, want %d", out.Version, costmodel.LedgerVersion)
	}
	if len(out.Runs) != 1 || len(out.Runs[0].Rows) == 0 {
		t.Fatalf("unexpected export shape: %+v", out)
	}
	if out.Runs[0].ModelWallNs <= 0 {
		t.Fatal("modelWallNs missing from export")
	}
	if out.Runs[0].Rows[0].Label != "superstep" {
		t.Fatalf("first row label %q, want superstep", out.Runs[0].Rows[0].Label)
	}
}
