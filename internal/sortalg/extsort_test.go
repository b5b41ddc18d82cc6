package sortalg

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pdm"
	"repro/internal/workload"
)

// TestMergeSortCountsPinned pins the baseline's structure, its three
// parallel-I/O counts and a hash of its output at four shapes: records of
// one to four words, fan-in 2 to 7, D = 1 to 4. The counts are a
// function of the shape alone, so any drift is a change in how MergeSort
// issues its transfers. It also pins the schedule: one parallel I/O in
// flight at a time, so no transfer starts while the array has begun an
// operation whose transfers have not started (see schedule).
func TestMergeSortCountsPinned(t *testing.T) {
	for _, tc := range []struct {
		n, d, b, rec, m  int
		runs, passes     int
		load, sort, read int64
		hash             uint64
	}{
		{1000, 2, 8, 1, 48, 21, 5, 63, 756, 63, 0x40be1a71104b62b5},
		{16384, 4, 64, 1, 768, 22, 5, 64, 768, 64, 0x8cae10b3a760d2a7},
		{5000, 3, 16, 2, 200, 53, 4, 209, 2090, 209, 0xd4b1fc48ed511da5},
		{777, 1, 4, 4, 32, 98, 3, 777, 6216, 777, 0x360def8a001baa0c},
	} {
		recs := make([]pdm.Word, tc.n*tc.rec)
		for i, x := range workload.Int64s(3, len(recs)) {
			recs[i] = pdm.Word(x)
		}
		sched := &schedule{holdAt: 3}
		disks := make([]pdm.Disk, tc.d)
		for i := range disks {
			disks[i] = &scheduleDisk{Disk: pdm.NewMemDisk(tc.b), s: sched, i: i}
		}
		arr, err := pdm.NewDiskArray(disks)
		if err != nil {
			t.Fatal(err)
		}
		sched.arr = arr
		out, info, err := MergeSort(arr, recs, tc.rec, tc.m)
		if cerr := arr.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if lead := sched.lead.Load(); lead > 0 {
			t.Errorf("n=%d D=%d B=%d rec=%d M=%d: a transfer started with the array %d operations ahead of the transfers started; want none ahead (one operation at a time)",
				tc.n, tc.d, tc.b, tc.rec, tc.m, lead)
		}
		h := fnv.New64a()
		for _, w := range out {
			h.Write(binary.LittleEndian.AppendUint64(nil, w))
		}
		got := []int64{int64(info.Runs), int64(info.Passes), info.LoadOps, info.SortOps, info.ReadOps}
		want := []int64{int64(tc.runs), int64(tc.passes), tc.load, tc.sort, tc.read}
		for i, name := range []string{"Runs", "Passes", "LoadOps", "SortOps", "ReadOps"} {
			if got[i] != want[i] {
				t.Errorf("n=%d D=%d B=%d rec=%d M=%d: %s = %d, want %d", tc.n, tc.d, tc.b, tc.rec, tc.m, name, got[i], want[i])
			}
		}
		if len(out) != len(recs) || h.Sum64() != tc.hash {
			t.Errorf("n=%d D=%d B=%d rec=%d M=%d: %d words out, hash %#x; want %d words, hash %#x",
				tc.n, tc.d, tc.b, tc.rec, tc.m, len(out), h.Sum64(), len(recs), tc.hash)
		}
	}
}

// TestMergeSortSurfacesDiskFaults fails every transfer one disk of a small
// MergeSort serves, one index at a time, in two ways: a pdm.FaultyDisk
// fails that transfer and every later one, a blipDisk fails that one
// alone. Either way the sort must return the injected error, and once its
// array is closed no goroutine of the run may be left. Under a blipDisk
// no later transfer repeats the fault, so a wait that dropped its error
// would let the sort finish with a wrong output and no error.
func TestMergeSortSurfacesDiskFaults(t *testing.T) {
	const n, d, b, m, faulty = 1000, 2, 8, 48, 1
	recs := make([]pdm.Word, n)
	for i, x := range workload.Int64s(3, n) {
		recs[i] = pdm.Word(x)
	}
	run := func(disk pdm.Disk) error {
		t.Helper()
		base := runtime.NumGoroutine()
		disks := []pdm.Disk{pdm.NewMemDisk(b), pdm.NewMemDisk(b)}
		disks[faulty] = disk
		arr, err := pdm.NewDiskArray(disks)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = MergeSort(arr, recs, 1, m)
		if cerr := arr.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		// The workers only need a turn to see their closed queues.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines left, %d before the sort", runtime.NumGoroutine(), base)
			}
		}
		return err
	}

	var total atomic.Int64
	if err := run(blipDisk{pdm.NewMemDisk(b), -1, &total}); err != nil {
		t.Fatalf("fault-free: %v", err)
	}
	if total.Load() < n/b {
		t.Fatalf("disk %d served only %d transfers", faulty, total.Load())
	}
	for ok := range total.Load() {
		if err := run(pdm.NewFaultyDisk(pdm.NewMemDisk(b), int(ok))); !errors.Is(err, pdm.ErrInjected) {
			t.Fatalf("sticky fault at transfer %d of %d: err = %v, want the injected fault", ok, total.Load(), err)
		}
		var seen atomic.Int64
		if err := run(blipDisk{pdm.NewMemDisk(b), ok, &seen}); !errors.Is(err, pdm.ErrInjected) {
			t.Fatalf("one-shot fault at transfer %d of %d: err = %v, want the injected fault", ok, total.Load(), err)
		}
	}
}

// TestMergeSortSurfacesBeginError runs MergeSort on a closed array: the
// first cycle fails to begin, and the sort must return that error.
func TestMergeSortSurfacesBeginError(t *testing.T) {
	arr := pdm.NewMemArray(2, 8)
	if err := arr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := MergeSort(arr, make([]pdm.Word, 100), 1, 48); !errors.Is(err, pdm.ErrClosed) {
		t.Fatalf("err = %v, want %v", err, pdm.ErrClosed)
	}
}

// schedule watches every transfer of an array whose disks are its
// scheduleDisks. As a transfer starts it counts itself in started and
// folds into lead how far the operations the array has begun run ahead
// of the transfers started so far. A caller that waits each operation
// before it begins the next keeps lead at or below 0: every earlier
// operation's transfers have started, and the current one's include this
// transfer.
// Disk 0 holds its holdAt-th transfer for a while before it starts, so a
// caller that does not wait builds a lead the next start sees.
type schedule struct {
	arr     *pdm.DiskArray
	holdAt  int
	started atomic.Int64
	lead    atomic.Int64
}

// scheduleDisk is one disk under a schedule. Embedding the interface
// hides the inner disk's batch methods, so every transfer is one call.
type scheduleDisk struct {
	pdm.Disk
	s      *schedule
	i      int
	served int // touched only by the disk's one worker
}

func (d *scheduleDisk) start() {
	d.served++
	if d.i == 0 && d.served == d.s.holdAt {
		time.Sleep(20 * time.Millisecond)
	}
	lead := d.s.arr.Stats().ParallelOps - d.s.started.Add(1)
	for old := d.s.lead.Load(); lead > old && !d.s.lead.CompareAndSwap(old, lead); old = d.s.lead.Load() {
	}
}

func (d *scheduleDisk) ReadTrack(t int, dst []pdm.Word) error {
	d.start()
	return d.Disk.ReadTrack(t, dst)
}

func (d *scheduleDisk) WriteTrack(t int, src []pdm.Word) error {
	d.start()
	return d.Disk.WriteTrack(t, src)
}

// blipDisk counts the transfers it serves in seen and fails the one that
// follows ok successful ones (none when ok < 0). Embedding the interface
// hides the inner disk's batch methods, so every transfer is one call.
type blipDisk struct {
	pdm.Disk
	ok   int64
	seen *atomic.Int64
}

func (d blipDisk) take() error {
	if d.seen.Add(1)-1 == d.ok {
		return pdm.ErrInjected
	}
	return nil
}

func (d blipDisk) ReadTrack(t int, dst []pdm.Word) error {
	if err := d.take(); err != nil {
		return err
	}
	return d.Disk.ReadTrack(t, dst)
}

func (d blipDisk) WriteTrack(t int, src []pdm.Word) error {
	if err := d.take(); err != nil {
		return err
	}
	return d.Disk.WriteTrack(t, src)
}
