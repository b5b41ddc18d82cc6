package core_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/workload"
)

// countDisk counts the track transfers a disk serves. Embedding the
// interface hides any batch methods of the inner disk, so every transfer
// is one call — the unit a FaultyDisk's budget is spent in.
type countDisk struct {
	pdm.Disk
	n *atomic.Int64
}

func (d countDisk) ReadTrack(t int, dst []pdm.Word) error {
	d.n.Add(1)
	return d.Disk.ReadTrack(t, dst)
}
func (d countDisk) WriteTrack(t int, src []pdm.Word) error {
	d.n.Add(1)
	return d.Disk.WriteTrack(t, src)
}

// TestRunFaultDrains is TestInitFaultDrains over a whole run: a
// FaultyDisk is driven through every per-disk transfer index of a small
// four-round run — input distribution, prologue bursts, window slides,
// write-behind, epilogue drains and the route phase alike — for every
// machine, ring depth and (processor, disk) pair. Whichever wait the
// fault surfaces in, the run must return the injected error with nothing
// left behind: no transfer finishes after Close, the goroutines return to
// baseline (watchedRun), and every span that was begun is closed — the
// init span always, and exactly one superstep or route span closed
// without its I/O row when the fault interrupted one. Runs alternate
// between recorded and unrecorded, so both wait paths are swept.
func TestRunFaultDrains(t *testing.T) {
	const (
		v, d, b = 8, 2, 8
		maxCtx  = 15 // 16 words = 2 blocks: one track per disk per context
		maxMsg  = 15 // echo sends its whole context to one VP; its other messages are empty and move nothing
	)
	// Full contexts, so both disks are in every context transfer.
	parts := cgm.Scatter(workload.Int64s(7, v*maxCtx), v)
	mem := func(proc, disk int) pdm.Disk { return pdm.NewMemDisk(b) }

	for _, m := range []struct {
		seq bool
		p   int
	}{{true, 1}, {false, 1}, {false, 4}} {
		for _, k := range []int{1, 2, 4} {
			base := core.Config{V: v, P: m.p, D: d, B: b, MaxMsgItems: maxMsg, MaxCtxItems: maxCtx, PipelineDepth: k}

			// A fault-free run counts the transfers each disk serves.
			counts := make([]atomic.Int64, m.p*d)
			err := watchedRun(t, fmt.Sprintf("seq=%v p=%d k=%d fault-free", m.seq, m.p, k), m.seq, base,
				func(proc, disk int) pdm.Disk { return countDisk{mem(proc, disk), &counts[proc*d+disk]} }, parts)
			if err != nil {
				t.Fatalf("seq=%v p=%d k=%d fault-free: %v", m.seq, m.p, k, err)
			}

			for fproc := 0; fproc < m.p; fproc++ {
				for fdisk := 0; fdisk < d; fdisk++ {
					total := int(counts[fproc*d+fdisk].Load())
					if total < 2*v/m.p {
						t.Fatalf("seq=%v p=%d k=%d: disk p%d/d%d served only %d transfers", m.seq, m.p, k, fproc, fdisk, total)
					}
					for okOps := 0; okOps < total; okOps++ {
						tag := fmt.Sprintf("seq=%v p=%d k=%d fault=p%d/d%d@%d/%d", m.seq, m.p, k, fproc, fdisk, okOps, total)
						cfg := base
						if okOps%2 == 0 {
							cfg.Recorder = obs.NewRecorder()
						}
						err := watchedRun(t, tag, m.seq, cfg, func(proc, disk int) pdm.Disk {
							if proc == fproc && disk == fdisk {
								return pdm.NewFaultyDisk(mem(proc, disk), okOps)
							}
							return mem(proc, disk)
						}, parts)
						if !errors.Is(err, pdm.ErrInjected) {
							t.Fatalf("%s: err = %v, want the injected fault", tag, err)
						}
						if cfg.Recorder != nil {
							checkSpansClosed(t, tag, cfg.Recorder, err)
						}
					}
				}
			}
		}
	}
}

// checkSpansClosed requires the trace of a run that failed with err to
// hold the closed span of every unit the fault can have interrupted. A
// span closed on an error path carries no I/O row (End, not EndIO), which
// is how the interrupted unit is told from the completed ones.
func checkSpansClosed(t *testing.T, tag string, rec *obs.Recorder, err error) {
	t.Helper()
	var init, cutSuperstep, cutRoute int
	for _, e := range traceEvents(t, rec) {
		switch {
		case e.Cat == "init":
			init++
		case e.Cat == "superstep" && len(e.Args) == 0:
			cutSuperstep++
		case e.Cat == "route" && len(e.Args) == 0:
			cutRoute++
		}
	}
	msg := err.Error()
	wantSuperstep, wantRoute := 0, 0
	switch {
	case strings.Contains(msg, "input distribution"):
	case strings.Contains(msg, " vp "):
		wantSuperstep = 1 // a wait inside local VP's superstep
	case strings.Contains(msg, "write batch"):
		wantRoute = 1
	case strings.Contains(msg, "write back"): // the round epilogue: no unit is open
	default:
		t.Fatalf("%s: err = %v names no phase of the round", tag, err)
	}
	if init != 1 || cutSuperstep != wantSuperstep || cutRoute != wantRoute {
		t.Fatalf("%s: err = %v: %d init, %d interrupted superstep and %d interrupted route spans closed, want 1, %d and %d",
			tag, err, init, cutSuperstep, cutRoute, wantSuperstep, wantRoute)
	}
}

// sizedDisk reports a block size of its own and counts its Close.
type sizedDisk struct {
	pdm.Disk
	bs     int
	closed *atomic.Int64
}

func (d sizedDisk) BlockSize() int { return d.bs }
func (d sizedDisk) Close() error {
	d.closed.Add(1)
	return d.Disk.Close()
}

// TestSetupFailureClosesDisks fails the set-up of one processor's array
// — its disks disagree on the block size, which pdm.NewDiskArrayOpts
// rejects — and requires the run to return that error with every disk
// that was constructed closed exactly once: the rejected processor's own
// (the array never took them over) and those of the arrays already built
// for the processors before it, whose workers must exit too.
func TestSetupFailureClosesDisks(t *testing.T) {
	const v, d, b = 8, 2, 8
	parts := cgm.Scatter(workload.Int64s(7, 64), v)
	for _, m := range []struct {
		seq      bool
		p, fproc int
	}{{true, 1, 0}, {false, 1, 0}, {false, 4, 1}, {false, 4, 3}} {
		tag := fmt.Sprintf("seq=%v p=%d bad=p%d", m.seq, m.p, m.fproc)
		base := runtime.NumGoroutine()
		var built, closed atomic.Int64
		cfg := core.Config{V: v, P: m.p, D: d, B: b, MaxMsgItems: 16, MaxCtxItems: 31,
			NewDisk: func(proc, disk int) pdm.Disk {
				built.Add(1)
				bs := b
				if proc == m.fproc {
					bs = b + disk // the processor's disks disagree
				}
				return sizedDisk{pdm.NewMemDisk(bs), bs, &closed}
			}}
		_, err := runMachine(m.seq, echo{}, cfg, parts)
		if err == nil || !strings.Contains(err.Error(), "block size") {
			t.Fatalf("%s: err = %v, want the array's block-size rejection", tag, err)
		}
		if want := int64((m.fproc + 1) * d); built.Load() != want || closed.Load() != want {
			t.Errorf("%s: %d disks constructed, %d closed, want %d of each", tag, built.Load(), closed.Load(), want)
		}
		waitGoroutines(t, tag, base)
	}
}
