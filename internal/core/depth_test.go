package core_test

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/sortalg"
	"repro/internal/wordcodec"
	"repro/internal/workload"
)

// TestPipelineDepthEquivalence pins the depth-k window's correctness
// contract: at every fixed depth — including depths at or past v (clamped
// to the VP count) — the outputs and the full PDM accounting are
// bit-identical to depth 1, the synchronous schedule, on sorting,
// permutation and transposition, sequential and parallel machines alike
// (see depthArms for the engine-independent references each arm is also
// held to). Only the begin/wait overlap may change with k, and that is
// invisible to the model by construction. CheckedIO is on so that the
// decode arena is zeroed after every superstep: a program or engine still
// reading it then fails here.
func TestPipelineDepthEquivalence(t *testing.T) {
	equivWorkloads(t, true, []int{2, 4, 8, 16}) // 16 > v: clamps to the ring v can use
}

// TestPipelineDepthSingleVP is the v == 1 boundary: one virtual
// processor leaves nothing to prefetch across (every depth clamps to a
// one-slot ring) and the run must still complete, match depth 1 and
// match the in-memory runtime.
func TestPipelineDepthSingleVP(t *testing.T) {
	const n = 256
	keys := workload.Int64s(3, n)
	parts := cgm.Scatter(keys, 1)

	base := core.Config{V: 1, P: 1, D: 2, B: 8, MaxMsgItems: n + 16, MaxCtxItems: 2*n + 16}
	want := reference[int64](t, "v=1", echo{}, 1, parts)
	for _, seq := range []bool{true, false} {
		depthArms(t, fmt.Sprintf("v=1/seq=%v", seq), want, base, []int{0, 4}, func(cfg core.Config) (*core.Result[int64], error) {
			res, err := runMachine(seq, echo{}, cfg, parts)
			if err == nil && res.Depth != 1 {
				t.Errorf("seq=%v k=%d: ring depth = %d, want 1 (clamped to v)", seq, cfg.PipelineDepth, res.Depth)
			}
			return res, err
		})
	}
}

// TestPipelineDepthResolved pins Result.Depth: fixed depths resolve to
// min(k, v) — 1 for the synchronous schedule — and the unrecorded auto
// policy resolves deterministically from the default time model.
func TestPipelineDepthResolved(t *testing.T) {
	const v, n = 8, 1 << 10
	keys := workload.Int64s(11, n)

	depth := func(k, p int) int {
		t.Helper()
		cfg := core.Config{V: v, P: p, D: 2, B: 8, PipelineDepth: k}
		_, res, err := sortalg.EMSort(keys, wordcodec.I64{}, cfg)
		if err != nil {
			t.Fatalf("k=%d p=%d: %v", k, p, err)
		}
		return res.Depth
	}

	for _, p := range []int{1, 2} {
		if got := depth(1, p); got != 1 {
			t.Errorf("p=%d k=1: Depth = %d, want 1", p, got)
		}
		if got := depth(3, p); got != 3 {
			t.Errorf("p=%d k=3: Depth = %d, want 3", p, got)
		}
		if got := depth(2*v, p); got != v {
			t.Errorf("p=%d k=%d: Depth = %d, want clamp to v=%d", p, 2*v, got, v)
		}
		// DefaultTimeModel is positioning-dominated, so auto starts at the
		// static maximum (8) — still ≤ v here, so no clamp.
		if got := depth(0, p); got != 8 {
			t.Errorf("p=%d auto: Depth = %d, want 8", p, got)
		}
	}
}

// TestPipelineDepthFault injects a disk fault mid-window at depth 4: the
// error must surface from a wait without wedging the ring (every slot's
// in-flight handles are still waited), and the recorder must export a
// well-formed trace afterwards.
func TestPipelineDepthFault(t *testing.T) {
	const v, n = 4, 64
	parts := cgm.Scatter(workload.Int64s(7, n), v)

	for _, p := range []int{1, 2} {
		for _, k := range []int{2, 4} {
			rec := obs.NewRecorder()
			cfg := core.Config{V: v, P: p, D: 2, B: 8,
				MaxMsgItems: n/v + 4, MaxCtxItems: n/v + 4,
				PipelineDepth: k, Recorder: rec,
				NewDisk: func(proc, disk int) pdm.Disk {
					if proc == p-1 && disk == 0 {
						return pdm.NewFaultyDisk(pdm.NewMemDisk(8), 5)
					}
					return pdm.NewMemDisk(8)
				},
			}
			var err error
			if p == 1 {
				_, err = core.RunSeq[int64](echo{}, wordcodec.I64{}, cfg, parts)
			} else {
				_, err = core.RunPar[int64](echo{}, wordcodec.I64{}, cfg, parts)
			}
			if !errors.Is(err, pdm.ErrInjected) {
				t.Fatalf("p=%d k=%d: err = %v, want injected disk fault", p, k, err)
			}
			if err := rec.WriteChromeTrace(io.Discard); err != nil {
				t.Errorf("p=%d k=%d: trace export after fault: %v", p, k, err)
			}
		}
	}
}

// TestPipelineDepthValidate pins the configuration contract of
// PipelineDepth: negative depths are rejected by Validate; ValidateFor
// rejects a fixed window whose k working sets exceed M; and the engine
// itself rejects a fixed depth the machine's actual scratch geometry
// cannot fit.
func TestPipelineDepthValidate(t *testing.T) {
	base := core.Config{V: 4, P: 2, D: 2, B: 8}

	neg := base
	neg.PipelineDepth = -1
	if err := neg.Validate(); err == nil || !strings.Contains(err.Error(), "PipelineDepth") {
		t.Errorf("negative depth: err = %v, want PipelineDepth error", err)
	}

	tight := base
	tight.PipelineDepth = 8
	tight.MaxCtxItems = 64
	tight.MaxMsgItems = 64
	tight.M = 128 // far below 8 windows of context + 4 message slots
	if err := tight.ValidateFor(1 << 10); err == nil || !strings.Contains(err.Error(), "internal memory") {
		t.Errorf("depth over M: err = %v, want memory bound error", err)
	}
	tight.PipelineDepth = 0 // auto must clamp instead of erroring
	if err := tight.ValidateFor(1 << 10); err != nil {
		t.Errorf("auto depth over M: err = %v, want clamp, not error", err)
	}

	// The engine re-checks with the real scratch geometry.
	keys := workload.Int64s(11, 1<<10)
	deep := core.Config{V: 8, P: 1, D: 2, B: 8,
		PipelineDepth: 8, M: 2000} // fits ~2 of this machine's working sets, not 8
	_, _, err := sortalg.EMSort(keys, wordcodec.I64{}, deep)
	if err == nil || !strings.Contains(err.Error(), "PipelineDepth") {
		t.Errorf("driver fixed-depth fit: err = %v, want PipelineDepth error", err)
	}
	deep.PipelineDepth = 0
	if _, _, err := sortalg.EMSort(keys, wordcodec.I64{}, deep); err != nil {
		t.Errorf("driver auto-depth fit: err = %v, want clamp, not error", err)
	}
}
