package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/sortalg"
	"repro/internal/trace"
	"repro/internal/wordcodec"
	"repro/internal/workload"
)

// Pipeline measures what the sliding window buys over the synchronous
// schedule (PipelineDepth 1: every operation waited before the next phase
// begins) on the sorting workload: wall time at k = 1 and at the scale's
// depth, the measured stall fraction (time the engine spent blocked on
// in-flight I/O), and the end-to-end speedup. Three disk substrates:
//
//   - mem: raw MemDisk — I/O is a memcpy, so the window recovers only
//     dispatch overhead.
//   - mem+delay: MemDisk behind a DelayDisk whose per-track latency is
//     calibrated from a k = 1 MemDisk run so that modelled I/O time
//     ≈ CPU time — the balanced regime pipelining targets, where k = 1
//     pays R+C+W per superstep and the windowed schedule pays
//     ≈ max(C, R+W).
//   - file: FileDisk on a temporary directory — real syscalls and page
//     cache.
//
// Both runs of a pair carry a recorder (stall is only measured when one
// is attached), so the comparison is like for like, and each schedule is
// run three times with the best wall reported (single-run walls on a
// shared host are too noisy to compare). The PDM op counts are asserted
// identical across the pair — the window must not change the model's
// cost, only the wall clock.
func Pipeline(s Scale) (*trace.Table, error) {
	t := &trace.Table{
		Title:   "Pipelined supersteps — windowed vs synchronous (k=1) schedule (sort, N=" + fmt.Sprint(s.N) + ")",
		Columns: []string{"disks", "schedule", "wall", "parallel I/Os", "stall", "stall frac", "speedup"},
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

	pair := func(label string, newDisk func(proc, disk int) pdm.Disk) error {
		syncWall, syncWorst, syncRes, err := run(1, newDisk)
		if err != nil {
			return fmt.Errorf("pipeline %s k=1: %w", label, err)
		}
		pipeWall, pipeWorst, pipeRes, err := run(s.Depth, newDisk)
		if err != nil {
			return fmt.Errorf("pipeline %s pipelined: %w", label, err)
		}
		if pipeRes.IO != syncRes.IO {
			return fmt.Errorf("pipeline %s: schedules disagree on PDM cost: %+v vs %+v",
				label, pipeRes.IO, syncRes.IO)
		}
		t.AddRow(label, "k=1", syncWall.Round(time.Microsecond).String(),
			syncRes.IO.ParallelOps, syncRes.Stall.Round(time.Microsecond).String(),
			trace.FormatFloat(stallFrac(syncRes.Stall, syncWall, s.P)), "1.00")
		t.AddRow(label, "pipelined", pipeWall.Round(time.Microsecond).String(),
			pipeRes.IO.ParallelOps, pipeRes.Stall.Round(time.Microsecond).String(),
			trace.FormatFloat(stallFrac(pipeRes.Stall, pipeWall, s.P)),
			trace.FormatFloat(float64(syncWall)/float64(pipeWall)))
		benchPair(s.Bench, "pipeline/"+label, reps, s.P, syncWall, syncWorst, syncRes, pipeWall, pipeWorst, pipeRes)
		return nil
	}

	if err := pair("mem", nil); err != nil {
		return nil, err
	}

	// Calibrate the delay so the modelled disk subsystem matches this
	// machine's CPU: per-processor I/O time ≈ whole-run CPU wall.
	cpuWall, _, cpuRes, err := run(1, nil)
	if err != nil {
		return nil, fmt.Errorf("pipeline calibration: %w", err)
	}
	delay := time.Duration(int64(cpuWall) * int64(s.P) / cpuRes.IO.ParallelOps)
	if delay < 10*time.Microsecond {
		delay = 10 * time.Microsecond
	}
	t.Notes = append(t.Notes, fmt.Sprintf("mem+delay models %v per track transfer (calibrated: modelled I/O ≈ CPU)", delay))
	if err := pair("mem+delay", func(proc, disk int) pdm.Disk {
		return pdm.NewDelayDisk(pdm.NewMemDisk(s.B), delay)
	}); err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp("", "emcgm-pipeline-")
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	defer os.RemoveAll(dir)
	var fderr error
	if err := pair("file", func(proc, disk int) pdm.Disk {
		fd, err := pdm.NewFileDisk(filepath.Join(dir, fmt.Sprintf("p%dd%d.disk", proc, disk)), s.B)
		if err != nil && fderr == nil {
			fderr = err
		}
		if err != nil {
			return pdm.NewMemDisk(s.B) // keep the run well-formed; fderr aborts below
		}
		return fd
	}); err != nil {
		return nil, err
	}
	if fderr != nil {
		return nil, fmt.Errorf("pipeline: %w", fderr)
	}

	t.Notes = append(t.Notes,
		"stall = engine time blocked on in-flight split-phase I/O, summed over processors; stall frac divides by p x wall",
		"wall = best of 3 runs per schedule",
		"PDM parallel I/Os are asserted bit-identical between the two schedules")
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

// benchPair emits the k=1/pipelined pair of a wall-clock figure into
// the scale's benchfmt file (a nil file ignores the call): wall with
// best/worst dispersion, stall and the stall fraction (stall over
// p × best wall — the overlap quantity emcgm-benchdiff gates), the
// exact PDM op count, and — when the backend issues real syscalls —
// the syscall count.
func benchPair[T any](f *benchfmt.File, name string, reps, p int,
	syncBest, syncWorst time.Duration, syncRes *core.Result[T],
	pipeBest, pipeWorst time.Duration, pipeRes *core.Result[T]) {
	if f == nil {
		return
	}
	one := func(sched string, best, worst time.Duration, res *core.Result[T]) {
		ms := []benchfmt.Metric{
			benchfmt.WallMetric(best, worst),
			benchfmt.ExactMetric("parallel_ios", "ops", res.IO.ParallelOps),
			benchfmt.ExactMetric("rounds", "rounds", int64(res.Rounds)),
			{Name: "stall", Unit: "ns", Better: benchfmt.Lower, Value: float64(res.Stall)},
			{Name: "stall_frac", Unit: "frac", Better: benchfmt.Lower,
				Value: stallFrac(res.Stall, best, p)},
		}
		if res.Syscalls > 0 {
			ms = append(ms, benchfmt.Metric{Name: "syscalls", Unit: "calls",
				Better: benchfmt.Lower, Value: float64(res.Syscalls)})
		}
		f.Add(name+"/"+sched, reps, ms...)
	}
	one("k=1", syncBest, syncWorst, syncRes)
	one("pipelined", pipeBest, pipeWorst, pipeRes)
}
