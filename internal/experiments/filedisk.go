package experiments

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/sortalg"
	"repro/internal/trace"
	"repro/internal/wordcodec"
	"repro/internal/workload"
)

// FileDiskFig measures the real-disk backend end to end on the sorting
// workload: FileDisk with buffered I/O and (where the filesystem
// supports it) with O_DIRECT, each under the synchronous schedule
// (PipelineDepth 1) and the windowed one at the scale's depth. Alongside
// the wall clock it reports the I/O syscall count — the quantity the
// batched vectored path shrinks: under a deep window the per-disk
// queues run deep, the workers coalesce conflict-free track transfers,
// and a contiguous run moves in one preadv/pwritev instead of one
// pread/pwrite per track, so syscalls-per-parallel-op drops below
// that of the k = 1 schedule, which only coalesces within one virtual
// processor's burst. The PDM accounting is
// asserted bit-identical between the schedules, exactly as in Pipeline:
// batching changes how operations hit the kernel, never what the model
// counts.
func FileDiskFig(s Scale) (*trace.Table, error) {
	t := &trace.Table{
		Title: "FileDisk backend — batched vectored I/O and direct I/O (sort, N=" + fmt.Sprint(s.N) + ")",
		Columns: []string{"backend", "schedule", "wall", "parallel I/Os",
			"syscalls", "sys/op", "stall frac", "speedup"},
	}
	keys := workload.Int64s(41, s.N)

	dir := s.DiskDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "emcgm-filedisk-")
		if err != nil {
			return nil, fmt.Errorf("filedisk: %w", err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("filedisk: %w", err)
	}

	reps := 3
	if s.Rec != nil {
		reps = 1 // keep an attached trace to one run per schedule
	}
	run := func(depth int, direct bool) (best, worst time.Duration, _ *core.Result[int64], _ error) {
		var bestRes *core.Result[int64]
		for r := 0; r < reps; r++ {
			rec := s.Rec
			if rec == nil {
				rec = obs.NewRecorder() // stall is only measured with a recorder
			}
			cfg := core.Config{V: s.V, P: s.P, D: 2, B: s.B, Recorder: rec,
				PipelineDepth: depth, DiskDir: dir, DirectIO: direct}
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

	sysPerOp := func(res *core.Result[int64]) string {
		if res.IO.ParallelOps == 0 {
			return "-"
		}
		return trace.FormatFloat(float64(res.Syscalls) / float64(res.IO.ParallelOps))
	}

	pair := func(label string, direct bool) error {
		syncWall, syncWorst, syncRes, err := run(1, direct)
		if err != nil {
			return fmt.Errorf("filedisk %s k=1: %w", label, err)
		}
		pipeWall, pipeWorst, pipeRes, err := run(s.Depth, direct)
		if err != nil {
			return fmt.Errorf("filedisk %s pipelined: %w", label, err)
		}
		if pipeRes.IO != syncRes.IO {
			return fmt.Errorf("filedisk %s: schedules disagree on PDM cost: %+v vs %+v",
				label, pipeRes.IO, syncRes.IO)
		}
		t.AddRow(label, "k=1", syncWall.Round(time.Microsecond).String(),
			syncRes.IO.ParallelOps, syncRes.Syscalls, sysPerOp(syncRes),
			trace.FormatFloat(stallFrac(syncRes.Stall, syncWall, s.P)), "1.00")
		t.AddRow(label, "pipelined", pipeWall.Round(time.Microsecond).String(),
			pipeRes.IO.ParallelOps, pipeRes.Syscalls, sysPerOp(pipeRes),
			trace.FormatFloat(stallFrac(pipeRes.Stall, pipeWall, s.P)),
			trace.FormatFloat(float64(syncWall)/float64(pipeWall)))
		benchPair(s.Bench, "filedisk/"+label, reps, s.P, syncWall, syncWorst, syncRes, pipeWall, pipeWorst, pipeRes)
		return nil
	}

	if err := pair("file", false); err != nil {
		return nil, err
	}
	if s.DirectIO {
		if pdm.DirectIOSupported(dir, s.B) {
			if err := pair("file+direct", true); err != nil {
				return nil, err
			}
		} else {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"direct I/O rows skipped: O_DIRECT unavailable on %s with B=%d (needs 8·B %% 512 == 0 and filesystem support)", dir, s.B))
		}
	}

	t.Notes = append(t.Notes,
		"syscalls = pread/pwrite/preadv/pwritev/fsync issued by the FileDisks; sys/op divides by PDM parallel I/Os",
		"batching grows with queue depth: a k=1 row coalesces within one VP's burst (its context and inbox are begun together, then waited), a deeper window across VPs",
		"wall = best of 3 runs per schedule; PDM parallel I/Os are asserted bit-identical between the two schedules")
	return t, nil
}
