package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/benchfmt"
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

// DepthSweep measures the stall-fraction-vs-k curve of the depth-k
// pipelined schedule on the sorting workload: for each window depth it
// reports the resolved ring depth, the wall clock, the measured stall
// fraction, the overlap model's predicted stall fraction, and the
// speedup over the synchronous schedule (k = 1). Two substrates:
//
//   - mem+delay: MemDisk behind a latency-calibrated DelayDisk (the
//     balanced regime, exactly as in Pipeline) — the depth dividend here
//     is prefetch distance: k/2 supersteps of read-ahead to hide each
//     superstep's I/O under.
//   - file: FileDisk on a temporary directory — real syscalls, where a
//     deeper window additionally feeds the per-disk batching workers
//     longer conflict-free runs to coalesce into vectored syscalls.
//
// Every run carries a recorder (stall is only measured with one
// attached), the PDM op counts are asserted bit-identical against the
// k = 1 row at every depth, and the predicted column comes
// from costmodel.Run.ModelWallPipelined under a time model matching the
// substrate (the fixed-delay disk is priced exactly; the file substrate
// has no calibrated model, so its predicted column is blank).
func DepthSweep(s Scale) (*trace.Table, error) {
	t := &trace.Table{
		Title: "Depth sweep — stall fraction vs pipeline window depth k (sort, N=" + fmt.Sprint(s.N) + ")",
		Columns: []string{"disks", "depth", "ring", "wall", "stall frac",
			"pred frac", "speedup"},
	}
	keys := workload.Int64s(41, s.N)

	reps := 3
	if s.Rec != nil {
		reps = 1 // keep an attached trace to one run per schedule
	}
	run := func(depth int, newDisk func(proc, disk int) pdm.Disk) (best, worst time.Duration, _ *core.Result[int64], _ error) {
		var bestRes *core.Result[int64]
		for r := 0; r < reps; r++ {
			rec := s.Rec
			if rec == nil {
				rec = obs.NewRecorder()
			}
			cfg := core.Config{V: s.V, P: s.P, D: 2, B: s.B, Recorder: rec,
				PipelineDepth: depth, NewDisk: newDisk}
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
			if wall > worst {
				worst = wall
			}
		}
		return best, worst, bestRes, nil
	}

	// sweep runs the depth ladder on one substrate. tm, when non-nil,
	// prices the predicted column.
	sweep := func(label string, newDisk func(proc, disk int) pdm.Disk, tm *pdm.TimeModel) error {
		var (
			syncWall  time.Duration
			syncRes   *core.Result[int64]
			crun      costmodel.Run
			compute   time.Duration
			bestFixed time.Duration
			autoWall  time.Duration
			autoRing  int
		)
		for _, k := range depthSweepKs {
			best, worst, res, err := run(k, newDisk)
			if err != nil {
				return fmt.Errorf("depth %s k=%d: %w", label, k, err)
			}
			if syncRes == nil {
				// Calibrate the overlap model's per-superstep compute time
				// from the synchronous run: whole-run wall per processor
				// minus the modelled unoverlapped I/O time, spread over the
				// supersteps.
				syncWall, syncRes = best, res
				crun = costmodel.Run{
					Machine: costmodel.Machine{Par: true, V: s.V, P: s.P, D: 2, B: s.B,
						Rounds: res.Rounds},
					PredOps: res.IO.ParallelOps,
				}
				if tm != nil {
					steps := crun.Machine.Rounds * crun.Machine.LocalV()
					opsPerStep := float64(res.IO.ParallelOps/int64(s.P)) / float64(steps)
					ioStep := time.Duration(opsPerStep * float64(tm.OpTime(s.B)))
					if c := syncWall/time.Duration(steps) - ioStep; c > 0 {
						compute = c
					}
				}
			} else if res.IO != syncRes.IO {
				return fmt.Errorf("depth %s k=%d: schedules disagree on PDM cost: %+v vs %+v",
					label, k, res.IO, syncRes.IO)
			}
			kLabel := fmt.Sprint(k)
			if k == 0 {
				kLabel = "auto"
				autoWall, autoRing = best, res.Depth
			} else if bestFixed == 0 || best < bestFixed {
				bestFixed = best
			}
			pred := "-"
			if tm != nil {
				pred = trace.FormatFloat(crun.ModelWallPipelined(*tm, compute, res.Depth).StallFrac)
			}
			t.AddRow(label, kLabel, res.Depth, best.Round(time.Microsecond).String(),
				trace.FormatFloat(stallFrac(res.Stall, best, s.P)), pred,
				trace.FormatFloat(float64(syncWall)/float64(best)))
			if s.Bench != nil {
				s.Bench.Add(fmt.Sprintf("depth/%s/k=%s", label, kLabel), reps,
					benchfmt.WallMetric(best, worst),
					benchfmt.ExactMetric("parallel_ios", "ops", res.IO.ParallelOps),
					benchfmt.ExactMetric("ring", "slots", int64(res.Depth)),
					benchfmt.Metric{Name: "stall_frac", Unit: "frac", Better: benchfmt.Lower,
						Value: stallFrac(res.Stall, best, s.P)})
			}
		}
		if bestFixed > 0 && autoWall > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s: auto resolved to ring %d, wall within %.0f%% of the best fixed depth",
				label, autoRing, 100*(float64(autoWall)/float64(bestFixed)-1)))
		}
		return nil
	}

	// Calibrate the delay exactly as Pipeline does: per-processor
	// modelled I/O time ≈ whole-run CPU wall of a k = 1 MemDisk run.
	cpuWall, _, cpuRes, err := run(1, nil)
	if err != nil {
		return nil, fmt.Errorf("depth calibration: %w", err)
	}
	delay := time.Duration(int64(cpuWall) * int64(s.P) / cpuRes.IO.ParallelOps)
	if delay < 10*time.Microsecond {
		delay = 10 * time.Microsecond
	}
	// The fixed-delay disk has no positioning cost: every track transfer
	// costs delay, batched or not, so its time model is pure transfer.
	delayTM := pdm.TimeModel{TransferBytesPerSec: float64(8*s.B) / delay.Seconds()}
	t.Notes = append(t.Notes, fmt.Sprintf("mem+delay models %v per track transfer (calibrated: modelled I/O ≈ CPU)", delay))
	if err := sweep("mem+delay", func(proc, disk int) pdm.Disk {
		return pdm.NewDelayDisk(pdm.NewMemDisk(s.B), delay)
	}, &delayTM); err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp("", "emcgm-depth-")
	if err != nil {
		return nil, fmt.Errorf("depth: %w", err)
	}
	defer os.RemoveAll(dir)
	var fderr error
	if err := sweep("file", func(proc, disk int) pdm.Disk {
		fd, err := pdm.NewFileDisk(filepath.Join(dir, fmt.Sprintf("p%dd%d.disk", proc, disk)), s.B)
		if err != nil && fderr == nil {
			fderr = err
		}
		if err != nil {
			return pdm.NewMemDisk(s.B) // keep the run well-formed; fderr aborts below
		}
		return fd
	}, nil); err != nil {
		return nil, err
	}
	if fderr != nil {
		return nil, fmt.Errorf("depth: %w", fderr)
	}

	t.Notes = append(t.Notes,
		"ring = the resolved window depth the run used; depth 1 is the synchronous schedule, the speedup column's reference",
		"stall frac = engine time blocked on in-flight I/O over p x wall; pred frac = costmodel overlap model at the same ring depth",
		"wall = best of 3 runs per config; PDM parallel I/Os are asserted bit-identical against k=1 at every depth")
	return t, nil
}
