package core

import (
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/cgm"
	"repro/internal/layout"
	"repro/internal/pdm"
	"repro/internal/wordcodec"
)

// keepOpen shields a disk from the machine's shutdown Close so a test can
// inspect its contents after the run returns.
type keepOpen struct{ pdm.Disk }

func (keepOpen) Close() error { return nil }

// Watchdog runs fn on a goroutine of its own and fails the test, with tag
// and every goroutine's stack, if fn has not returned after 30 s: a
// barrier wedged by a missing compensating send is then a named failure
// in seconds instead of the package timeout. Exported for the core_test
// files (watchedRun).
func Watchdog(t *testing.T, tag string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("%s: the run has not returned after 30s\n%s", tag, buf[:runtime.Stack(buf, true)])
	}
}

// AtProcs runs fn with GOMAXPROCS set to n, then restores it. GOMAXPROCS is
// what sets c, the virtual processors a real processor computes at once
// (Result.Workers). Exported for the core_test files.
func AtProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// TestParDiskFaultSurfaces injects a disk fault into one real processor of
// the parallel machine and checks that (a) the run returns ErrInjected
// rather than deadlocking at the round barrier — the erroring processor
// must still emit the batches its peers' receive loops count on — and
// (b) the other processor's on-disk contexts stay intact.
func TestParDiskFaultSurfaces(t *testing.T) {
	const (
		v, p, d, b = 4, 2, 2, 8
		maxCtx     = 16
		localV     = v / p
	)
	parts := cgm.Scatter(seq64(32), v)

	// Keep handles on every healthy disk; fault proc 1's disk 0 at its second
	// transfer — the first write of proc 1's second context — so it fires
	// inside the round-0 VP loop.
	disks := make([][]pdm.Disk, p)
	for i := range disks {
		disks[i] = make([]pdm.Disk, d)
	}
	cfg := Config{
		V: v, P: p, D: d, B: b, MaxMsgItems: 16,
		NewDisk: func(proc, disk int) pdm.Disk {
			var dk pdm.Disk = keepOpen{pdm.NewMemDisk(b)}
			if proc == 1 && disk == 0 {
				dk = pdm.NewFaultyDisk(dk, 1)
			}
			disks[proc][disk] = dk
			return dk
		},
	}
	var err error
	Watchdog(t, "par p=2 fault=p1/d0@1", func() {
		_, err = RunPar[int64](sized[int64]{rotate{k: 3}, maxCtx}, wordcodec.I64{}, cfg, parts)
	})
	if !errors.Is(err, pdm.ErrInjected) {
		t.Fatalf("err = %v, want injected disk fault", err)
	}

	// Proc 0 never faulted: each of its local contexts was written by
	// round 0 and must hold exactly its original partition (rotate does not
	// mutate state in round 0, the round the fault interrupts). The image
	// holds the items and nothing else: one word each, in blocks of b.
	arr, err := pdm.NewDiskArray(disks[0])
	if err != nil {
		t.Fatal(err)
	}
	cb := pdm.BlocksFor(maxCtx, b)
	img := make([]pdm.Word, cb*b)
	var scr layout.Scratch
	var pend pdm.PendingSet
	mem := newVPMem[int64](v, 0, false)
	order, lead := commitOrder(v, p, d, 0)
	for pos, l := range order {
		j := 0*localV + l
		want := parts[j]
		// Only the live prefix of the context run was ever written.
		nb := pdm.BlocksFor(len(want), b)
		bufs := layout.SplitBlocksInto(nil, img[:nb*b], b)
		start, back := ctxRun(lead, pos, cb, nb)
		if back {
			slices.Reverse(bufs)
		}
		if err := layout.BeginReadStripedScratch(arr, 0, start, bufs, &scr, &pend); err != nil {
			t.Fatalf("vp %d: read context: %v", j, err)
		}
		if err := pend.Wait(); err != nil {
			t.Fatalf("vp %d: read context: %v", j, err)
		}
		state, _, _ := mem.decode(wordcodec.I64{}, img[:len(want)], nil, 0, nil, nil)
		for k := range want {
			if state[k] != want[k] {
				t.Fatalf("vp %d item %d = %d, want %d", j, k, state[k], want[k])
			}
		}
	}
}
