package experiments

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/sortalg"
	"repro/internal/trace"
	"repro/internal/wordcodec"
	"repro/internal/workload"
)

// depthSweepKs are the fixed window depths the sweep measures, plus 0 —
// the auto policy, whose row reports the ring depth it resolved to.
// Depth 1, the synchronous schedule, leads: it is the reference every
// other row is held against.
var depthSweepKs = []int{1, 2, 4, 8, 0}

// substrate is one disk backing the depth sweep runs its ladder on.
type substrate struct {
	name    string
	newDisk func(proc, disk int) pdm.Disk // nil and dir empty: MemDisk
	dir     string                        // FileDisks under this directory
	direct  bool                          // open dir's FileDisks with O_DIRECT
	tm      *pdm.TimeModel                // prices the pred frac column; nil leaves it blank
}

// DepthSweep is the wall-clock figure: the sorting workload over the
// window-depth ladder {1, 2, 4, 8, auto} on every disk substrate. Each row
// reports the resolved ring depth, the best and the worst wall clock of
// its runs, the PDM parallel I/Os, the I/O syscalls and syscalls per
// parallel I/O, the measured stall fraction, the overlap model's
// predicted stall fraction, and the speedup over the synchronous schedule
// (k = 1) on the same substrate. A note per substrate ranks auto against
// the best fixed depth only where their walls' ranges do not overlap. The
// substrates:
//
//   - mem: raw MemDisk — I/O is a memcpy, so the window recovers only
//     dispatch overhead.
//   - mem+delay: MemDisk behind a DelayDisk whose per-track latency is
//     calibrated from mem's k = 1 row so that modelled I/O time ≈ CPU
//     time — the balanced regime, where the depth dividend is prefetch
//     distance: k/2 supersteps of read-ahead to hide each superstep's I/O
//     under.
//   - file: FileDisk under Scale.DiskDir — real syscalls, where a deeper
//     window additionally feeds the per-disk batching workers longer
//     conflict-free runs to coalesce into vectored syscalls.
//   - file+direct: the same with O_DIRECT, when Scale.DirectIO is set and
//     the directory's filesystem supports it.
//
// Every run carries a recorder (stall is only measured with one
// attached), and the PDM op counts are asserted bit-identical against the
// substrate's k = 1 row at every depth: the window reorders begins, never
// what the model counts. The predicted column comes from
// costmodel.Run.ModelWallPipelined under the substrate's time model; only
// the fixed-delay disk is priced exactly, so the other rows leave it blank.
func DepthSweep(s Scale) (*trace.Table, error) {
	t := &trace.Table{
		Title: "Depth sweep — wall, syscalls and stall vs pipeline window depth k (sort, N=" + fmt.Sprint(s.N) + ")",
		Columns: []string{"disks", "depth", "ring", "wall", "wall max", "parallel I/Os",
			"syscalls", "sys/op", "stall frac", "pred frac", "speedup"},
	}
	keys := workload.Int64s(41, s.N)

	dir := s.DiskDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "emcgm-depth-")
		if err != nil {
			return nil, fmt.Errorf("depth: %w", err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("depth: %w", err)
	}

	reps := 3
	if s.Rec != nil {
		reps = 1 // keep an attached trace to one run per schedule
	}
	// run returns the best and the worst wall of reps sorts at one
	// (depth, substrate) and the result of the best run.
	run := func(depth int, sub substrate) (best, worst time.Duration, bestRes *core.Result[int64], _ error) {
		for r := 0; r < reps; r++ {
			rec := s.Rec
			if rec == nil {
				rec = obs.NewRecorder()
			}
			cfg := s.machine(s.P, 2)
			cfg.Recorder, cfg.PipelineDepth = rec, depth
			cfg.NewDisk, cfg.DiskDir, cfg.DirectIO = sub.newDisk, sub.dir, sub.direct
			if err := cfg.ValidateFor(s.N); err != nil {
				return 0, 0, nil, err
			}
			t0 := time.Now()
			_, res, err := sortalg.EMSort(keys, wordcodec.I64{}, cfg)
			wall := time.Since(t0)
			if err != nil {
				return 0, 0, nil, err
			}
			if bestRes == nil || wall < best {
				best, bestRes = wall, res
			}
			worst = max(worst, wall)
		}
		return best, worst, bestRes, nil
	}

	// sweep adds the ladder's rows for one substrate and returns its
	// k = 1 row's wall and result.
	sweep := func(sub substrate) (syncWall time.Duration, syncRes *core.Result[int64], _ error) {
		// The walls' ranges over the reps: auto's, and the fixed depth's
		// with the best wall.
		var (
			crun             costmodel.Run
			compute          time.Duration
			fixedLo, fixedHi time.Duration
			autoLo, autoHi   time.Duration
			autoRing         int
		)
		for _, k := range depthSweepKs {
			wall, worst, res, err := run(k, sub)
			if err != nil {
				return 0, nil, fmt.Errorf("depth %s k=%d: %w", sub.name, k, err)
			}
			if syncRes == nil {
				syncWall, syncRes = wall, res
				if sub.tm != nil {
					// Calibrate the overlap model's per-superstep compute
					// time from the synchronous run: whole-run wall per
					// processor minus the modelled unoverlapped I/O time,
					// spread over the supersteps.
					crun = costmodel.Run{
						Machine: costmodel.Machine{Par: true, V: s.V, P: s.P, D: 2, B: s.B,
							Rounds: res.Rounds},
						PredOps: res.IO.ParallelOps,
					}
					steps := crun.Machine.Rounds * crun.Machine.LocalV()
					opsPerStep := float64(res.IO.ParallelOps/int64(s.P)) / float64(steps)
					ioStep := time.Duration(opsPerStep * float64(sub.tm.OpTime(s.B)))
					compute = max(syncWall/time.Duration(steps)-ioStep, 0)
				}
			} else if res.IO != syncRes.IO {
				return 0, nil, fmt.Errorf("depth %s k=%d: schedules disagree on PDM cost: %+v vs %+v",
					sub.name, k, res.IO, syncRes.IO)
			}
			kLabel := fmt.Sprint(k)
			if k == 0 {
				kLabel = "auto"
				autoLo, autoHi, autoRing = wall, worst, res.Depth
			} else if fixedLo == 0 || wall < fixedLo {
				fixedLo, fixedHi = wall, worst
			}
			sysPerOp, pred := "-", "-"
			if res.Syscalls > 0 {
				sysPerOp = trace.FormatFloat(float64(res.Syscalls) / float64(res.IO.ParallelOps))
			}
			if sub.tm != nil {
				pred = trace.FormatFloat(crun.ModelWallPipelined(*sub.tm, compute, res.Depth).StallFrac)
			}
			t.AddRow(sub.name, kLabel, res.Depth, wall.Round(time.Microsecond).String(),
				worst.Round(time.Microsecond).String(), res.IO.ParallelOps, res.Syscalls, sysPerOp,
				trace.FormatFloat(stallFrac(res.Stall, wall, s.P)), pred,
				trace.FormatFloat(float64(syncWall)/float64(wall)))
		}
		// Runs of a few milliseconds swing by tens of percent: where the
		// ranges overlap, neither wall is known to be the better one.
		rank := "unresolved against the best fixed depth (their walls' ranges overlap)"
		if reps < 2 {
			rank = "unresolved against the best fixed depth (one run each)"
		} else if autoHi < fixedLo || fixedHi < autoLo {
			rank = fmt.Sprintf("wall %+.0f%% against the best fixed depth (their ranges apart)", 100*(float64(autoLo)/float64(fixedLo)-1))
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s: auto resolved to ring %d, %s", sub.name, autoRing, rank))
		return syncWall, syncRes, nil
	}

	memWall, memRes, err := sweep(substrate{name: "mem"})
	if err != nil {
		return nil, err
	}
	// Calibrate the delay so the modelled disk subsystem matches this
	// machine's CPU: per-processor I/O time ≈ whole-run wall of the k = 1
	// MemDisk run.
	delay := max(time.Duration(int64(memWall)*int64(s.P)/memRes.IO.ParallelOps), 10*time.Microsecond)
	// The fixed-delay disk has no positioning cost: every track transfer
	// costs delay, batched or not, so its time model is pure transfer.
	delayTM := pdm.TimeModel{TransferBytesPerSec: float64(8*s.B) / delay.Seconds()}
	t.Notes = append(t.Notes, fmt.Sprintf("mem+delay models %v per track transfer (calibrated: modelled I/O ≈ CPU)", delay))
	subs := []substrate{
		{name: "mem+delay", tm: &delayTM, newDisk: func(proc, disk int) pdm.Disk {
			return pdm.NewDelayDisk(pdm.NewMemDisk(s.B), delay)
		}},
		{name: "file", dir: dir},
	}
	if s.DirectIO {
		if pdm.DirectIOSupported(dir, s.B) {
			subs = append(subs, substrate{name: "file+direct", dir: dir, direct: true})
		} else {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"file+direct rows skipped: O_DIRECT unavailable on %s with B=%d (needs 8·B %% 512 == 0 and filesystem support)", dir, s.B))
		}
	}
	for _, sub := range subs {
		if _, _, err := sweep(sub); err != nil {
			return nil, err
		}
	}

	t.Notes = append(t.Notes,
		"ring = the resolved window depth the run used; depth 1 is the synchronous schedule, the speedup column's reference",
		"syscalls = pread/pwrite/preadv/pwritev/fsync issued by the FileDisks; sys/op divides by PDM parallel I/Os",
		"stall frac = engine time blocked on in-flight I/O over p x wall; pred frac = costmodel overlap model at the same ring depth",
		"wall, wall max = best and worst of 3 runs per config; auto is ranked only where its range and the best fixed depth's do not overlap; PDM parallel I/Os are asserted bit-identical against k=1 at every depth")
	return t, nil
}

// stallFrac is the fraction of total driver time (p goroutines x wall)
// spent blocked on in-flight I/O; stall is summed across processors.
func stallFrac(stall, wall time.Duration, p int) float64 {
	if wall <= 0 || p <= 0 {
		return 0
	}
	return float64(stall) / (float64(p) * float64(wall))
}
