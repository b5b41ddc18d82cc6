package pdm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSplitPhaseReadAfterWrite checks the ordering contract the pipelined
// drivers rely on: transfers on one disk run in operation begin order, so
// a read begun after a write to the same track observes the written data —
// even when the handles are waited out of order.
func TestSplitPhaseReadAfterWrite(t *testing.T) {
	const d, b = 4, 16
	arr := NewMemArray(d, b)
	defer arr.Close()

	reqs := make([]BlockReq, d)
	src := make([][]Word, d)
	dst := make([][]Word, d)
	for i := range reqs {
		reqs[i] = BlockReq{Disk: i, Track: 3}
		src[i] = make([]Word, b)
		dst[i] = make([]Word, b)
		for k := range src[i] {
			src[i][k] = Word(i*b + k)
		}
	}
	w, err := arr.BeginWriteBlocks(reqs, src)
	if err != nil {
		t.Fatal(err)
	}
	r, err := arr.BeginReadBlocks(reqs, dst)
	if err != nil {
		t.Fatal(err)
	}
	// Wait the read first: completion order is independent of wait order.
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		for k := range dst[i] {
			if dst[i][k] != src[i][k] {
				t.Fatalf("disk %d word %d = %d, want %d", i, k, dst[i][k], src[i][k])
			}
		}
	}
}

// TestSplitPhaseAccountingAtBegin checks that the PDM counters reflect an
// operation as soon as Begin returns — the property that keeps pipelined
// and synchronous schedules bit-identical in cost.
func TestSplitPhaseAccountingAtBegin(t *testing.T) {
	arr := NewMemArray(2, 8)
	defer arr.Close()
	reqs := []BlockReq{{Disk: 0, Track: 0}, {Disk: 1, Track: 0}}
	bufs := [][]Word{make([]Word, 8), make([]Word, 8)}

	p, err := arr.BeginWriteBlocks(reqs, bufs)
	if err != nil {
		t.Fatal(err)
	}
	if got := arr.Stats(); got.ParallelOps != 1 || got.BlocksMoved != 2 {
		t.Errorf("after begin: ParallelOps=%d BlocksMoved=%d, want 1 and 2", got.ParallelOps, got.BlocksMoved)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := arr.Stats(); got.ParallelOps != 1 || got.BlocksMoved != 2 {
		t.Errorf("after wait: ParallelOps=%d BlocksMoved=%d, want 1 and 2 (unchanged)", got.ParallelOps, got.BlocksMoved)
	}
	// Waiting twice is a no-op, and the empty operation is free.
	if err := p.Wait(); err != nil {
		t.Errorf("second Wait = %v, want nil", err)
	}
	e, err := arr.BeginWriteBlocks(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Wait(); err != nil {
		t.Errorf("empty op Wait = %v, want nil", err)
	}
	if got := arr.Stats(); got.ParallelOps != 1 {
		t.Errorf("empty op charged: ParallelOps=%d, want 1", got.ParallelOps)
	}
	var nilP *Pending
	if err := nilP.Wait(); err != nil {
		t.Errorf("nil Wait = %v, want nil", err)
	}
}

// TestSplitPhaseZeroAlloc is the split-phase analogue of
// TestDiskArrayOpZeroAlloc: once the freelist holds a recycled handle, a
// begin + wait cycle performs zero heap allocations, on both bitset
// widths of the conflict check.
func TestSplitPhaseZeroAlloc(t *testing.T) {
	for _, d := range []int{1, 8, 96} {
		arr := NewMemArray(d, 64)
		reqs := make([]BlockReq, d)
		bufs := make([][]Word, d)
		for i := range reqs {
			reqs[i] = BlockReq{Disk: i, Track: 0}
			bufs[i] = make([]Word, 64)
		}
		// Warm up: allocate tracks and the first Pending handle.
		if err := arr.WriteBlocks(reqs, bufs); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			w, err := arr.BeginWriteBlocks(reqs, bufs)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Wait(); err != nil {
				t.Fatal(err)
			}
			r, err := arr.BeginReadBlocks(reqs, bufs)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Wait(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("D=%d: %v allocs per begin+wait write/read, want 0", d, allocs)
		}
		if err := arr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSplitPhaseConcurrentBeginWait hammers one array from several
// goroutines, each owning a disjoint track range; run under -race it
// checks the begin serialisation, the freelist, and the completion path
// for data races, and then verifies every goroutine read back its own
// writes.
func TestSplitPhaseConcurrentBeginWait(t *testing.T) {
	const d, b, workers, iters = 4, 16, 8, 50
	arr := NewMemArray(d, b)
	defer arr.Close()

	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			reqs := make([]BlockReq, d)
			src := make([][]Word, d)
			dst := make([][]Word, d)
			for i := range reqs {
				src[i] = make([]Word, b)
				dst[i] = make([]Word, b)
			}
			for it := 0; it < iters; it++ {
				track := w*iters + it // disjoint across goroutines
				for i := range reqs {
					reqs[i] = BlockReq{Disk: i, Track: track}
					for k := range src[i] {
						src[i][k] = Word(track*d*b + i*b + k)
					}
				}
				pw, err := arr.BeginWriteBlocks(reqs, src)
				if err != nil {
					errc <- err
					return
				}
				pr, err := arr.BeginReadBlocks(reqs, dst)
				if err != nil {
					errc <- fmt.Errorf("begin read: %w (write pending: %v)", err, pw.Wait())
					return
				}
				if err := pw.Wait(); err != nil {
					errc <- err
					return
				}
				if err := pr.Wait(); err != nil {
					errc <- err
					return
				}
				for i := range dst {
					for k := range dst[i] {
						if dst[i][k] != src[i][k] {
							errc <- fmt.Errorf("worker %d track %d disk %d word %d = %d, want %d",
								w, track, i, k, dst[i][k], src[i][k])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	want := int64(workers * iters * 2)
	if got := arr.Stats().ParallelOps; got != want {
		t.Errorf("ParallelOps = %d, want %d", got, want)
	}
}

// TestSplitPhaseDeepQueue begins far more operations than the per-disk
// queue depth before waiting any of them: begins past the buffer block
// until the worker drains, but nothing deadlocks, and every operation is
// counted.
func TestSplitPhaseDeepQueue(t *testing.T) {
	const b = 8
	n := 4 * diskQueueDepth
	arr := NewMemArray(1, b)
	defer arr.Close()

	pends := make([]*Pending, 0, n)
	bufs := make([][][]Word, n)
	for i := 0; i < n; i++ {
		bufs[i] = [][]Word{make([]Word, b)}
		bufs[i][0][0] = Word(i)
		p, err := arr.BeginWriteBlocks([]BlockReq{{Disk: 0, Track: i}}, bufs[i])
		if err != nil {
			t.Fatal(err)
		}
		pends = append(pends, p)
	}
	for _, p := range pends {
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := arr.Stats().ParallelOps; got != int64(n) {
		t.Errorf("ParallelOps = %d, want %d", got, n)
	}
	got := make([]Word, b)
	for i := 0; i < n; i++ {
		if err := arr.Disk(0).ReadTrack(i, got); err != nil {
			t.Fatal(err)
		}
		if got[0] != Word(i) {
			t.Errorf("track %d = %d, want %d", i, got[0], i)
		}
	}
}

// TestSplitPhaseFaultSurfacesInWait injects a disk fault and checks the
// failure contract: the error surfaces from Wait (not Begin — the charge
// was already taken), the handle still recycles, and the array neither
// wedges nor corrupts later operations.
func TestSplitPhaseFaultSurfacesInWait(t *testing.T) {
	const b = 8
	disks := []Disk{NewMemDisk(b), NewFaultyDisk(NewMemDisk(b), 0)}
	arr, err := NewDiskArray(disks)
	if err != nil {
		t.Fatal(err)
	}
	defer arr.Close()

	reqs := []BlockReq{{Disk: 0, Track: 0}, {Disk: 1, Track: 0}}
	bufs := [][]Word{make([]Word, b), make([]Word, b)}
	p, err := arr.BeginWriteBlocks(reqs, bufs)
	if err != nil {
		t.Fatalf("Begin = %v, want fault deferred to Wait", err)
	}
	if err := p.Wait(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Wait = %v, want ErrInjected", err)
	}
	// The operation was still charged: the model counts issued I/Os.
	if got := arr.Stats().ParallelOps; got != 1 {
		t.Errorf("ParallelOps = %d, want 1", got)
	}
	// The array keeps working; the healthy disk is unaffected.
	if err := arr.WriteBlocks(reqs[:1], bufs[:1]); err != nil {
		t.Errorf("write on healthy disk after fault = %v", err)
	}
	p2, err := arr.BeginWriteBlocks(reqs, bufs)
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Wait(); !errors.Is(err, ErrInjected) {
		t.Errorf("second faulting Wait = %v, want ErrInjected", err)
	}
}

// TestPendingSetDrainsAfterError checks that a set Wait reports the first
// error in begin order but still drains every handle, leaving the set
// empty and reusable.
func TestPendingSetDrainsAfterError(t *testing.T) {
	const b = 8
	disks := []Disk{NewMemDisk(b), NewFaultyDisk(NewMemDisk(b), 0)}
	arr, err := NewDiskArray(disks)
	if err != nil {
		t.Fatal(err)
	}
	defer arr.Close()

	buf0 := [][]Word{make([]Word, b)}
	buf1 := [][]Word{make([]Word, b)}
	var set PendingSet
	if set.Wait() != nil {
		t.Fatal("empty set Wait != nil")
	}
	bad, err := arr.BeginWriteBlocks([]BlockReq{{Disk: 1, Track: 0}}, buf1)
	if err != nil {
		t.Fatal(err)
	}
	set.Add(bad)
	good, err := arr.BeginWriteBlocks([]BlockReq{{Disk: 0, Track: 0}}, buf0)
	if err != nil {
		t.Fatal(err)
	}
	set.Add(good)
	if set.Len() != 2 {
		t.Fatalf("Len = %d, want 2", set.Len())
	}
	if err := set.Wait(); !errors.Is(err, ErrInjected) {
		t.Fatalf("set Wait = %v, want ErrInjected", err)
	}
	if set.Len() != 0 {
		t.Fatalf("Len after Wait = %d, want 0", set.Len())
	}
	// The set is reusable and a clean batch reports success.
	p, err := arr.BeginReadBlocks([]BlockReq{{Disk: 0, Track: 0}}, buf0)
	if err != nil {
		t.Fatal(err)
	}
	set.Add(p)
	if err := set.Wait(); err != nil {
		t.Errorf("reused set Wait = %v, want nil", err)
	}
}

// TestBeginAfterClose checks the split-phase entry points fail fast on a
// closed array instead of deadlocking on stopped workers.
func TestBeginAfterClose(t *testing.T) {
	arr := NewMemArray(1, 4)
	reqs := []BlockReq{{Disk: 0, Track: 0}}
	bufs := [][]Word{make([]Word, 4)}
	if err := arr.WriteBlocks(reqs, bufs); err != nil {
		t.Fatal(err)
	}
	if err := arr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := arr.BeginReadBlocks(reqs, bufs); err != ErrClosed {
		t.Errorf("BeginReadBlocks after Close = %v, want ErrClosed", err)
	}
	if _, err := arr.BeginWriteBlocks(reqs, bufs); err != ErrClosed {
		t.Errorf("BeginWriteBlocks after Close = %v, want ErrClosed", err)
	}
}

// closeLog is a DelayDisk that counts the transfers it serves, and those
// of them still running once it has been closed.
type closeLog struct {
	*DelayDisk
	closed       atomic.Bool
	served, late atomic.Int64
}

func (d *closeLog) transfer(tracks []int, fn func() error) error {
	err := fn()
	d.served.Add(int64(len(tracks)))
	if d.closed.Load() {
		d.late.Add(int64(len(tracks)))
	}
	return err
}
func (d *closeLog) ReadTracks(tracks []int, bufs [][]Word) error {
	return d.transfer(tracks, func() error { return d.DelayDisk.ReadTracks(tracks, bufs) })
}
func (d *closeLog) WriteTracks(tracks []int, bufs [][]Word) error {
	return d.transfer(tracks, func() error { return d.DelayDisk.WriteTracks(tracks, bufs) })
}
func (d *closeLog) ReadTrack(t int, dst []Word) error {
	return d.ReadTracks([]int{t}, [][]Word{dst})
}
func (d *closeLog) WriteTrack(t int, src []Word) error {
	return d.WriteTracks([]int{t}, [][]Word{src})
}
func (d *closeLog) Close() error {
	d.closed.Store(true)
	return d.DelayDisk.Close()
}

// TestCloseWaitsForWorkers begins a burst on slow disks and closes the
// array without waiting for it. Close must let the workers serve what is
// queued and leave before it closes a disk: every Pending returns (nil or
// ErrClosed), no transfer runs against a closed disk, and no worker
// goroutine is left once Close has returned.
func TestCloseWaitsForWorkers(t *testing.T) {
	const d, b, ops = 2, 8, 8
	base := runtime.NumGoroutine()
	logs := make([]*closeLog, d)
	disks := make([]Disk, d)
	for i := range disks {
		logs[i] = &closeLog{DelayDisk: NewDelayDisk(NewMemDisk(b), 20*time.Millisecond)}
		disks[i] = logs[i]
	}
	arr, err := NewDiskArrayOpts(disks, ArrayOptions{QueueDepth: ops})
	if err != nil {
		t.Fatal(err)
	}
	var pend []*Pending
	for op := range ops {
		reqs := []BlockReq{{Disk: 0, Track: op}, {Disk: 1, Track: op}}
		p, err := arr.BeginWriteBlocks(reqs, [][]Word{make([]Word, b), make([]Word, b)})
		if err != nil {
			t.Fatal(err)
		}
		pend = append(pend, p)
	}
	if err := arr.Close(); err != nil {
		t.Fatal(err)
	}
	// A worker that has signalled it is done may still be returning, so
	// the count gets a moment to settle: a fraction of the 140 ms that a
	// worker Close did not wait for would still spend on its queue.
	for settle := time.Now().Add(20 * time.Millisecond); runtime.NumGoroutine() > base && time.Now().Before(settle); {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Close, %d before the array", n, base)
	}
	for i, p := range pend {
		if err := p.Wait(); err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("op %d: Wait = %v, want nil or ErrClosed", i, err)
		}
	}
	for i, l := range logs {
		if n := l.late.Load(); n != 0 {
			t.Errorf("disk %d: %d of %d transfers ran after the disk was closed", i, n, l.served.Load())
		}
	}
}

// TestLeakedPendingNeverResurrected pins down the freelist's safety
// property: only Wait recycles a handle, so a handle the caller leaks
// (never waits) must never be handed out again by a later Begin — a
// resurrected un-waited handle would let two operations share one
// WaitGroup and error slab. Run under -race this also proves the leaked
// handle's fields are never touched by the array after its transfers
// complete.
func TestLeakedPendingNeverResurrected(t *testing.T) {
	const d, b = 2, 8
	arr := NewMemArray(d, b)
	defer arr.Close()

	reqs := []BlockReq{{Disk: 0, Track: 0}, {Disk: 1, Track: 0}}
	bufs := [][]Word{make([]Word, b), make([]Word, b)}

	// Deliberate leak: begin and never wait (the test exists to observe
	// what happens to an abandoned handle).
	leaked, err := arr.BeginWriteBlocks(reqs, bufs)
	if err != nil {
		t.Fatal(err)
	}
	leaked.wg.Wait() // transfers done; the handle itself stays un-waited

	// Churn the freelist: every cycle recycles its own handle via Wait,
	// and none may alias the leaked one.
	var prev *Pending
	for i := 0; i < 100; i++ {
		p, err := arr.BeginWriteBlocks(reqs, bufs)
		if err != nil {
			t.Fatal(err)
		}
		if p == leaked {
			t.Fatalf("cycle %d: Begin resurrected a handle that was never waited", i)
		}
		if prev != nil && p != prev {
			// Not a correctness requirement, but the steady state the
			// freelist exists for: one handle cycling forever.
			t.Logf("cycle %d: freelist issued a new handle", i)
		}
		prev = p
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	// The leaked handle is still the caller's to wait late; doing so must
	// be safe and only now may the handle re-enter circulation.
	if err := leaked.Wait(); err != nil {
		t.Fatal(err)
	}
	p, err := arr.BeginWriteBlocks(reqs, bufs)
	if err != nil {
		t.Fatal(err)
	}
	if p != leaked {
		t.Errorf("freelist did not reuse the late-waited handle (got %p, want %p)", p, leaked)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
}
