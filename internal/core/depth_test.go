package core_test

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/costmodel"
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
// reading it then fails here. It runs at GOMAXPROCS 1, 2 and 4, so the
// deeper arms compute up to c = 2 … 5 VPs of a processor at once and are
// still held to the synchronous arm.
func TestPipelineDepthEquivalence(t *testing.T) {
	for _, g := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", g), func(t *testing.T) {
			core.AtProcs(g, func() { equivWorkloads(t, true, []int{2, 4, 8, 16}) }) // 16 > v: clamps to the ring v can use
		})
	}
}

// TestPipelineDepthSingleVP is the v == 1 boundary: one virtual
// processor leaves nothing to prefetch across (every depth clamps to a
// one-slot ring) and the run must still complete, match depth 1 and
// match the in-memory runtime.
func TestPipelineDepthSingleVP(t *testing.T) {
	const n = 256
	keys := workload.Int64s(3, n)
	parts := cgm.Scatter(keys, 1)

	base := core.Config{V: 1, P: 1, D: 2, B: 8, MaxMsgItems: n + 16}
	want := reference[int64](t, "v=1", echo{}, 1, parts)
	for _, seq := range []bool{true, false} {
		depthArms(t, fmt.Sprintf("v=1/seq=%v", seq), want, base, []int{0, 4}, func(cfg core.Config) (*core.Result[int64], error) {
			res, err := runMachine(seq, sized[int64]{echo{}, 2*n + 16}, cfg, parts)
			if err == nil && res.Depth != 1 {
				t.Errorf("seq=%v k=%d: ring depth = %d, want 1 (clamped to v)", seq, cfg.PipelineDepth, res.Depth)
			}
			return res, err
		})
	}
}

// TestPipelineDepthResolved pins Result.Depth: fixed depths resolve to
// min(k, v) — 1 for the synchronous schedule — and the auto policy
// resolves from the time model of the disks the Config builds: the floor
// of 2 on in-memory and buffered file disks, the default device's depth
// on DirectIO and NewDisk disks. The depth, and with it the whole
// schedule, is a function of the Config alone: a Recorder, and a Ledger
// whose time model would pick another auto depth, leave the ring depth,
// every count, the outputs and the sequence each disk serves exactly as
// the unobserved run's.
func TestPipelineDepthResolved(t *testing.T) {
	const v, n, b = 8, 1 << 10, 8
	keys := workload.Int64s(11, n)

	depth := func(tag string, cfg core.Config) int {
		t.Helper()
		_, res, err := sortalg.EMSort(keys, wordcodec.I64{}, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		return res.Depth
	}

	// The default device is positioning-dominated at B = 8, so its auto
	// depth is the static maximum (8) — still ≤ v here, so no clamp.
	deviceK := costmodel.AutoDepth(pdm.DefaultTimeModel(), b)
	for _, p := range []int{1, 2} {
		for _, k := range []int{1, 3, 2 * v} {
			tag := fmt.Sprintf("p=%d k=%d", p, k)
			if got := depth(tag, core.Config{V: v, P: p, D: 2, B: b, PipelineDepth: k}); got != min(k, v) {
				t.Errorf("%s: Depth = %d, want min(k, v) = %d", tag, got, min(k, v))
			}
		}
		for _, be := range []struct {
			name string
			cfg  core.Config
			want int
		}{
			{"memory", core.Config{}, 2},
			{"file", core.Config{DiskDir: t.TempDir()}, 2},
			{"file+direct", core.Config{DiskDir: t.TempDir(), DirectIO: true}, deviceK},
			{"newdisk", core.Config{NewDisk: func(int, int) pdm.Disk { return pdm.NewMemDisk(b) }}, deviceK},
		} {
			cfg := be.cfg
			cfg.V, cfg.P, cfg.D, cfg.B = v, p, 2, b
			tag := fmt.Sprintf("p=%d auto/%s", p, be.name)
			if got := depth(tag, cfg); got != be.want {
				t.Errorf("%s: Depth = %d, want %d", tag, got, be.want)
			}
		}
	}

	// The observed arms, on the sequential machine and on RunPar at p = 2.
	// At v = 16 the auto ring (8) has room to be resized; a pure-transfer
	// time model would resolve it to 2. The sort leaves its contexts clean
	// after round 0, so under RunPar no write lands between two reads and
	// its served sequences are the same at every depth; the relay rewrites
	// every context every round, so there they are not.
	const ov, on = 16, 1 << 12
	parts := cgm.Scatter(workload.Int64s(13, on), ov)
	pure := pdm.TimeModel{TransferBytesPerSec: 100e6}
	for _, w := range []struct {
		name string
		prog cgm.Program[int64]
		cfg  core.Config
	}{
		{"sort", sortalg.Sorter[int64]{}, sortalg.EMSortConfig(core.Config{V: ov, D: 2, B: 8}, on)},
		{"relay", relay{}, core.Config{V: ov, D: 2, B: 8}},
	} {
		for _, p := range []int{1, 2} {
			for _, k := range []int{0, 1, 4} {
				tag := fmt.Sprintf("observed/%s/p=%d/k=%d", w.name, p, k)
				base := w.cfg
				base.P, base.PipelineDepth = p, k
				bare, bareServed := servedRun(t, tag+"/bare", w.prog, base, parts)
				for _, ledger := range []bool{false, true} {
					cfg := base
					cfg.Recorder = obs.NewRecorder()
					atag := tag + "/recorder"
					if ledger {
						cfg.Ledger = costmodel.NewLedger(pure)
						atag += "+ledger"
					}
					res, served := servedRun(t, atag, w.prog, cfg, parts)
					if res.Depth != bare.Depth {
						t.Errorf("%s: Depth = %d, unobserved run %d", atag, res.Depth, bare.Depth)
					}
					equivResults(t, atag, bare, res)
					for i := range bareServed {
						if !slices.Equal(served[i], bareServed[i]) {
							t.Errorf("%s: disk %d of proc %d served another sequence than the unobserved run's", atag, i%base.D, i/base.D)
						}
					}
				}
			}
		}
	}
}

// relay hands every VP's partition on to the next VP each round, for four
// rounds, so every context is rewritten in every round.
type relay struct{}

func (relay) Init(vp *cgm.VP[int64], input []int64) { vp.State = append([]int64(nil), input...) }
func (relay) Round(vp *cgm.VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	if round > 0 {
		vp.State = append([]int64(nil), inbox[(vp.ID+vp.V-1)%vp.V]...)
	}
	if round == 4 {
		return nil, true
	}
	out := make([][]int64, vp.V)
	out[(vp.ID+1)%vp.V] = vp.State
	return out, false
}
func (relay) Output(vp *cgm.VP[int64]) []int64 { return vp.State }

// access is one track transfer as a disk served it.
type access struct {
	write bool
	track int
}

// seqDisk logs the transfers it serves, in order. Embedding the interface
// hides the inner disk's batch methods, so its worker serves one track at
// a time in the order the engine began them.
type seqDisk struct {
	pdm.Disk
	mu  sync.Mutex
	log []access
}

func (d *seqDisk) note(write bool, t int) {
	d.mu.Lock()
	d.log = append(d.log, access{write, t})
	d.mu.Unlock()
}

func (d *seqDisk) ReadTrack(t int, dst []pdm.Word) error {
	d.note(false, t)
	return d.Disk.ReadTrack(t, dst)
}

func (d *seqDisk) WriteTrack(t int, src []pdm.Word) error {
	d.note(true, t)
	return d.Disk.WriteTrack(t, src)
}

// served returns the transfers in the order the disk served them. With
// unordered set, each maximal run of writes comes back sorted by track:
// RunPar's route phase lays batches out in the order its channel delivers
// them, which the scheduler picks; where a run of writes starts and ends,
// and every read, is still the begin order.
func (d *seqDisk) served(unordered bool) []access {
	d.mu.Lock()
	out := slices.Clone(d.log)
	d.mu.Unlock()
	for i := 0; unordered && i < len(out); {
		j := i
		for j < len(out) && out[j].write == out[i].write {
			j++
		}
		if out[i].write {
			slices.SortFunc(out[i:j], func(a, b access) int { return a.track - b.track })
		}
		i = j
	}
	return out
}

// servedRun runs prog on parts on cfg's machine — Algorithm 2 at P = 1,
// else Algorithm 3 — over disks that log what they serve, and returns the
// result with each disk's served sequence, indexed proc·D + disk.
func servedRun(t *testing.T, tag string, prog cgm.Program[int64], cfg core.Config, parts [][]int64) (*core.Result[int64], [][]access) {
	t.Helper()
	return servedRunOn(t, tag, cfg.P == 1, prog, cfg, parts)
}

// servedRunOn is servedRun on the machine seq names: RunSeq, or RunPar at
// any P.
func servedRunOn(t *testing.T, tag string, seq bool, prog cgm.Program[int64], cfg core.Config, parts [][]int64) (*core.Result[int64], [][]access) {
	t.Helper()
	disks := make([]*seqDisk, cfg.P*cfg.D)
	cfg.NewDisk = func(proc, disk int) pdm.Disk {
		d := &seqDisk{Disk: pdm.NewMemDisk(cfg.B)}
		disks[proc*cfg.D+disk] = d
		return d
	}
	res, err := runMachine(seq, prog, cfg, parts)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	served := make([][]access, len(disks))
	for i, d := range disks {
		served[i] = d.served(cfg.P > 1)
	}
	return res, served
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
				MaxMsgItems:   n/v + 4,
				PipelineDepth: k, Recorder: rec,
				NewDisk: func(proc, disk int) pdm.Disk {
					if proc == p-1 && disk == 0 {
						return pdm.NewFaultyDisk(pdm.NewMemDisk(8), 5)
					}
					return pdm.NewMemDisk(8)
				},
			}
			_, err := runMachine(p == 1, sized[int64]{echo{}, n/v + 4}, cfg, parts)
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
// PipelineDepth: negative depths are rejected by Validate; the engine
// applies its depth rule — clamp to v, then reject a fixed window whose k
// working sets exceed M, or any machine where one does not fit — before
// it builds a disk; and it rejects a fixed depth the machine's actual
// scratch geometry cannot fit.
func TestPipelineDepthValidate(t *testing.T) {
	base := core.Config{V: 4, P: 2, D: 2, B: 8}

	neg := base
	neg.PipelineDepth = -1
	if err := neg.Validate(); err == nil || !strings.Contains(err.Error(), "PipelineDepth") {
		t.Errorf("negative depth: err = %v, want PipelineDepth error", err)
	}

	// One working set here is an 8-block context run and 4 message slots of
	// 8 blocks — the program declares μ = 64, and 64 one-word items fill 8
	// blocks of 8 exactly — so 320 words. A machine M rejects builds no
	// disk.
	parts := cgm.Scatter(workload.Int64s(11, 64), 4)
	built := 0
	run := func(cfg core.Config) (*core.Result[int64], error) {
		built = 0
		return core.RunPar[int64](sized[int64]{echo{}, 64}, wordcodec.I64{}, cfg, parts)
	}
	tight := base
	tight.PipelineDepth = 8
	tight.MaxMsgItems = 64
	tight.M = 2 * 320 // two working sets, not 8
	tight.NewDisk = func(int, int) pdm.Disk { built++; return pdm.NewMemDisk(tight.B) }
	if _, err := run(tight); err == nil || !strings.Contains(err.Error(), "internal memory") {
		t.Errorf("depth over M: err = %v, want memory bound error", err)
	}
	if built != 0 {
		t.Errorf("depth over M: %d disks built, want none", built)
	}
	// Auto must clamp instead of erroring: disks the caller supplies are
	// priced as the default device, whose 8 — 4 after the clamp to v — M
	// does not fit.
	tight.PipelineDepth = 0
	if res, err := run(tight); err != nil {
		t.Errorf("auto depth over M: err = %v, want clamp, not error", err)
	} else if res.Depth != 2 {
		t.Errorf("auto depth over M: Depth = %d, want the 2 working sets M fits", res.Depth)
	}
	tight.M = 320 - 1 // not one working set: no depth can run
	if _, err := run(tight); err == nil || !strings.Contains(err.Error(), "working set") {
		t.Errorf("auto depth, one working set over M: err = %v, want memory bound error", err)
	}
	if built != 0 {
		t.Errorf("auto depth, one working set over M: %d disks built, want none", built)
	}

	// A fixed depth past v is clamped to v before it is held to M: 16
	// windows would need 5120 words, the 4 the engine runs fit exactly.
	wide := tight
	wide.NewDisk = nil
	wide.PipelineDepth = 16
	wide.M = 4 * 320
	if res, err := run(wide); err != nil {
		t.Errorf("depth clamped to v within M: err = %v", err)
	} else if res.Depth != 4 {
		t.Errorf("depth clamped to v within M: Depth = %d, want 4", res.Depth)
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
	deep.NewDisk = func(int, int) pdm.Disk { return pdm.NewMemDisk(deep.B) }
	if _, res, err := sortalg.EMSort(keys, wordcodec.I64{}, deep); err != nil {
		t.Errorf("driver auto-depth fit: err = %v, want clamp, not error", err)
	} else if res.Depth != 2 {
		t.Errorf("driver auto-depth fit: Depth = %d, want the 2 working sets M fits", res.Depth)
	}
}
