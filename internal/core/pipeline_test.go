package core_test

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"

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

// equivResults asserts the window depth changed nothing the model can
// see: outputs, the full IOStats (total and per processor), the
// context/message split, and every observed bound are bit-identical to
// the synchronous schedule's (off, PipelineDepth 1). Only Stall and Depth
// — the overlap schedule itself — may differ.
func equivResults[T comparable](t *testing.T, tag string, off, on *core.Result[T]) {
	t.Helper()
	if on.IO != off.IO {
		t.Errorf("%s: IO = %+v, want %+v", tag, on.IO, off.IO)
	}
	if len(on.IOPerProc) != len(off.IOPerProc) {
		t.Fatalf("%s: %d per-proc stats, want %d", tag, len(on.IOPerProc), len(off.IOPerProc))
	}
	for i := range off.IOPerProc {
		if on.IOPerProc[i] != off.IOPerProc[i] {
			t.Errorf("%s: proc %d IO = %+v, want %+v", tag, i, on.IOPerProc[i], off.IOPerProc[i])
		}
	}
	if on.CtxOps != off.CtxOps || on.MsgOps != off.MsgOps {
		t.Errorf("%s: CtxOps/MsgOps = %d/%d, want %d/%d", tag, on.CtxOps, on.MsgOps, off.CtxOps, off.MsgOps)
	}
	if on.Rounds != off.Rounds || on.Supersteps != off.Supersteps {
		t.Errorf("%s: Rounds/Supersteps = %d/%d, want %d/%d", tag, on.Rounds, on.Supersteps, off.Rounds, off.Supersteps)
	}
	if on.MaxTracks != off.MaxTracks {
		t.Errorf("%s: MaxTracks = %d, want %d", tag, on.MaxTracks, off.MaxTracks)
	}
	if on.MaxH != off.MaxH || on.CommItems != off.CommItems {
		t.Errorf("%s: MaxH/CommItems = %d/%d, want %d/%d", tag, on.MaxH, on.CommItems, off.MaxH, off.CommItems)
	}
	if on.MaxMsgObserved != off.MaxMsgObserved || on.MaxCtxObserved != off.MaxCtxObserved {
		t.Errorf("%s: observed bounds = %d/%d, want %d/%d", tag,
			on.MaxMsgObserved, on.MaxCtxObserved, off.MaxMsgObserved, off.MaxCtxObserved)
	}
	sameOutputs(t, tag, on.Outputs, off.Outputs)
}

// reference runs prog on the in-memory CGM runtime — the implementation
// that shares no code with the engine — and returns its outputs.
func reference[T any](t *testing.T, tag string, prog cgm.Program[T], v int, parts [][]T) [][]T {
	t.Helper()
	ref, err := cgm.Run(prog, v, parts)
	if err != nil {
		t.Fatalf("%s: in-memory reference: %v", tag, err)
	}
	return ref.Outputs
}

// sameOutputs asserts got equals the reference's output partitions.
func sameOutputs[T comparable](t *testing.T, tag string, got, want [][]T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d output partitions, reference has %d", tag, len(got), len(want))
	}
	for j := range want {
		if len(got[j]) != len(want[j]) {
			t.Fatalf("%s: vp %d output length %d, reference has %d", tag, j, len(got[j]), len(want[j]))
		}
		for k := range want[j] {
			if got[j][k] != want[j][k] {
				t.Fatalf("%s: vp %d item %d differs from the reference", tag, j, k)
			}
		}
	}
}

// depthArms runs one workload at PipelineDepth 1 — the synchronous
// schedule, the baseline arm — and at each of depths, and requires every
// equivResults field of each arm to equal the baseline's. Every arm is
// also held to the two references that share no code with the engine:
// its outputs must equal want, the in-memory cgm.Run's, and it runs
// under a Recorder with a Ledger whose Theorem 2/3 prediction must
// reconcile with the recorded superstep rows.
func depthArms[T comparable](t *testing.T, tag string, want [][]T, base core.Config, depths []int,
	f func(core.Config) (*core.Result[T], error)) {
	t.Helper()
	arm := func(k int) *core.Result[T] {
		t.Helper()
		cfg := base
		cfg.PipelineDepth = k
		cfg.Recorder = obs.NewRecorder()
		cfg.Ledger = costmodel.NewLedger(pdm.DefaultTimeModel())
		ktag := fmt.Sprintf("%s/k=%d", tag, k)
		res, err := f(cfg)
		if err != nil {
			t.Fatalf("%s: %v", ktag, err)
		}
		sameOutputs(t, ktag, res.Outputs, want)
		if err := cfg.Ledger.Reconcile(); err != nil {
			t.Errorf("%s: ledger: %v", ktag, err)
		}
		return res
	}
	sync := arm(1)
	for _, k := range depths {
		equivResults(t, fmt.Sprintf("%s/k=%d", tag, k), sync, arm(k))
	}
}

// equivWorkloads runs depthArms over sorting, permutation, transposition,
// a skewed rotation and a skewed shrink on RunPar at p = 1, 2, 4 and on
// the sequential machine proper (Algorithm 2, not p = 1 of Algorithm 3).
// The rotation and the shrink are there for the live-prefix transfer's
// corners: their partitions run from empty (a context of no block) to a
// third of the input, and all but one message of every outbox is empty
// and moves no block. The rotation's contexts never change; the shrink's
// shrink every round to a shorter one that is not empty, which the next
// round reads back, so a context run that gives back more than the blocks
// it shrank out of fails here.
func equivWorkloads(t *testing.T, checked bool, depths []int) {
	const v, n = 8, 1 << 10
	keys := workload.Int64s(11, n)
	dests := workload.Permutation(12, n)
	items := make([]permute.Item, n)  // permute: Dest is the target position
	titems := make([]permute.Item, n) // transpose: Dest holds the source position
	for i := range items {
		items[i] = permute.Item{Dest: dests[i], Val: keys[i]}
		titems[i] = permute.Item{Dest: int64(i), Val: keys[i]}
	}
	sorted := reference[int64](t, "sort", sortalg.Sorter[int64]{}, v, cgm.Scatter(keys, v))
	permuted := reference[permute.Item](t, "permute", permute.New(n), v, cgm.Scatter(items, v))
	transposed := reference[permute.Item](t, "transpose", transpose.New(32, 32), v, cgm.Scatter(titems, v))
	skewed := cgm.Scatter(keys, v)
	skewed[0], skewed[1], skewed[2] = append(append(skewed[0], skewed[1]...), skewed[2]...), nil, nil
	skewed[5] = skewed[5][:1]
	skewCfg := core.Config{V: v, D: 2, B: 8, CheckedIO: checked, MaxMsgItems: n}

	// The rotation and the shrink run first. Neither looks at its items'
	// values to index, so a transfer that hands them the wrong words —
	// CheckedIO's poison, say — fails here by name, as an output that
	// differs from the reference, before a program that indexes by its
	// keys (the sort's merge) meets them.
	for _, w := range []struct {
		name string
		prog cgm.Program[int64]
	}{{"rotate", echo{}}, {"shrink", shrink{}}} {
		want := reference(t, w.name, w.prog, v, skewed)
		prog := sized[int64]{w.prog, n}
		for _, p := range []int{1, 2, 4} {
			skewCfg.P = p
			depthArms(t, fmt.Sprintf("%s/p=%d", w.name, p), want, skewCfg, depths, func(cfg core.Config) (*core.Result[int64], error) {
				return runMachine(false, prog, cfg, skewed)
			})
		}
		depthArms(t, w.name+"/seq", want, skewCfg, depths, func(cfg core.Config) (*core.Result[int64], error) {
			return runMachine(true, prog, cfg, skewed)
		})
	}
	if t.Failed() {
		t.FailNow() // the sort's merge may index out of its runs on such words
	}
	for _, p := range []int{1, 2, 4} {
		base := core.Config{V: v, P: p, D: 2, B: 8, CheckedIO: checked}
		tagP := fmt.Sprintf("p=%d", p)
		depthArms(t, "sort/"+tagP, sorted, base, depths, func(cfg core.Config) (*core.Result[int64], error) {
			return sortDelivered(sorted)(sortalg.EMSort(keys, wordcodec.I64{}, cfg))
		})
		depthArms(t, "permute/"+tagP, permuted, base, depths, func(cfg core.Config) (*core.Result[permute.Item], error) {
			return delivered(permute.EMPermute(keys, dests, cfg))
		})
		depthArms(t, "transpose/"+tagP, transposed, base, depths, func(cfg core.Config) (*core.Result[permute.Item], error) {
			return delivered(transpose.EMTranspose(keys, 32, 32, cfg))
		})
	}

	seqCfg := core.Config{V: v, P: 1, D: 2, B: 8, CheckedIO: checked,
		MaxMsgItems: 4*((n+v*v-1)/(v*v)) + v + 16,
		MaxHItems:   2*((n+v-1)/v) + v + 16}
	depthArms(t, "permute/seq", permuted, seqCfg, depths, func(cfg core.Config) (*core.Result[permute.Item], error) {
		return core.RunSeq[permute.Item](permute.New(n), permute.Codec{}, cfg, cgm.Scatter(items, v))
	})
	depthArms(t, "sort/seq", sorted, core.Config{V: v, P: 1, D: 2, B: 8, CheckedIO: checked}, depths,
		func(cfg core.Config) (*core.Result[int64], error) {
			return core.RunSeq[int64](sortalg.Sorter[int64]{}, wordcodec.I64{}, sortalg.EMSortConfig(cfg, n), cgm.Scatter(keys, v))
		})
}

// delivered puts what a permutation wrapper wrote into its result vector
// back into the Outputs the program leaves (the wrapper's are empty):
// VP j's partition of the positions, each item tagged with its own.
func delivered(out []int64, res *core.Result[permute.Item], err error) (*core.Result[permute.Item], error) {
	if err != nil {
		return nil, err
	}
	if slices.ContainsFunc(res.Outputs, func(o []permute.Item) bool { return len(o) > 0 }) {
		return nil, errors.New("the wrapper left outputs in the Result")
	}
	for j := range res.Outputs {
		lo, hi := cgm.PartRange(len(out), len(res.Outputs), j)
		for g := lo; g < hi; g++ {
			res.Outputs[j] = append(res.Outputs[j], permute.Item{Dest: int64(g), Val: out[g]})
		}
	}
	return res, nil
}

// sortDelivered puts the vector the sort wrapper wrote back into the
// Outputs the program leaves (the wrapper's are empty), cut at the
// reference's partition sizes: the merged ranges follow the splitters,
// which the in-memory run shares.
func sortDelivered(want [][]int64) func([]int64, *core.Result[int64], error) (*core.Result[int64], error) {
	return func(out []int64, res *core.Result[int64], err error) (*core.Result[int64], error) {
		if err != nil {
			return nil, err
		}
		if slices.ContainsFunc(res.Outputs, func(o []int64) bool { return len(o) > 0 }) {
			return nil, errors.New("the wrapper left outputs in the Result")
		}
		for j, w := range want {
			res.Outputs[j], out = out[:len(w):len(w)], out[len(w):]
		}
		return res, nil
	}
}

// TestPipelineEquivalence is the acceptance check of the default
// schedule: on sorting, permutation and transposition — seq and par —
// the auto-sized window (PipelineDepth 0) must reproduce the exact
// outputs and the exact PDM accounting of the synchronous schedule,
// PipelineDepth 1.
func TestPipelineEquivalence(t *testing.T) {
	equivWorkloads(t, false, []int{0})
}

// TestPipelineFaultWithRecorder injects a disk fault into the pipelined
// drivers with a recorder attached: the error must surface from the wait
// path without wedging the pipeline, and the recorder must still export a
// well-formed trace (no span left open crashes the Chrome export, no
// worker result is abandoned).
func TestPipelineFaultWithRecorder(t *testing.T) {
	const v, n = 4, 64
	parts := cgm.Scatter(workload.Int64s(7, n), v)

	for _, p := range []int{1, 2} {
		rec := obs.NewRecorder()
		cfg := core.Config{V: v, P: p, D: 2, B: 8,
			MaxMsgItems: n/v + 4,
			Recorder:    rec,
			NewDisk: func(proc, disk int) pdm.Disk {
				if proc == p-1 && disk == 0 {
					return pdm.NewFaultyDisk(pdm.NewMemDisk(8), 5)
				}
				return pdm.NewMemDisk(8)
			},
		}
		_, err := runMachine(p == 1, sized[int64]{echo{}, n/v + 4}, cfg, parts)
		if !errors.Is(err, pdm.ErrInjected) {
			t.Fatalf("p=%d: err = %v, want injected disk fault", p, err)
		}
		if err := rec.WriteChromeTrace(io.Discard); err != nil {
			t.Errorf("p=%d: trace export after fault: %v", p, err)
		}
	}
}

// echo circulates partitions for a few rounds — enough I/O for the
// injected fault to fire inside the pipelined superstep loop.
type echo struct{}

func (echo) Init(vp *cgm.VP[int64], input []int64) { vp.State = append([]int64(nil), input...) }
func (echo) Round(vp *cgm.VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	if round == 3 {
		return nil, true
	}
	out := make([][]int64, vp.V)
	out[(vp.ID+1)%vp.V] = vp.State
	return out, false
}
func (echo) Output(vp *cgm.VP[int64]) []int64 { return vp.State }

// shrink sheds the last quarter of its context every round and sends it to
// the next VP, which adds what it receives into its first item: a context
// of two items or more shrinks every round to a shorter one that is not
// empty. It finishes after four rounds.
type shrink struct{}

func (shrink) Init(vp *cgm.VP[int64], input []int64) { vp.State = append([]int64(nil), input...) }
func (shrink) Round(vp *cgm.VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	for _, m := range inbox {
		for _, x := range m {
			if len(vp.State) > 0 {
				vp.State[0] += x
			}
		}
	}
	if round == 4 {
		return nil, true
	}
	keep := len(vp.State) - len(vp.State)/4
	out := make([][]int64, vp.V)
	out[(vp.ID+1)%vp.V] = vp.State[keep:]
	vp.State = vp.State[:keep]
	return out, false
}
func (shrink) Output(vp *cgm.VP[int64]) []int64 { return vp.State }

// sized declares μ = mu items (cgm.ContextSizer) for a test program that
// declares none: a run learns its context bound from the program alone.
type sized[T any] struct {
	cgm.Program[T]
	mu int
}

func (s sized[T]) MaxContextItems(int, int) int { return s.mu }
