package pdm

import (
	"runtime"
	"testing"
)

// TestDiskArrayOpZeroAlloc is the acceptance check for the persistent
// worker-pool dispatch: once tracks exist, a parallel I/O operation —
// validation, dispatch to the per-disk workers, wait, and atomic
// accounting — performs zero heap allocations, for both the ≤64-disk
// bitset word and the wide-bitset path, and on buffered file disks, whose
// one-track services go through the same batch call as coalesced ones.
func TestDiskArrayOpZeroAlloc(t *testing.T) {
	for _, c := range []struct {
		name string
		d, b int
		file bool
	}{
		{"mem", 1, 64, false},
		{"mem", 8, 64, false},
		{"mem", 96, 64, false},
		{"file", 1, 512, true},
		{"file", 4, 512, true},
	} {
		disks := make([]Disk, c.d)
		for i := range disks {
			if c.file {
				disks[i] = newTestFileDisk(t, c.b, false)
			} else {
				disks[i] = NewMemDisk(c.b)
			}
		}
		arr, err := NewDiskArray(disks)
		if err != nil {
			t.Fatal(err)
		}
		reqs := make([]BlockReq, c.d)
		bufs := make([][]Word, c.d)
		for i := range reqs {
			reqs[i] = BlockReq{Disk: i, Track: 0}
			bufs[i] = make([]Word, c.b)
		}
		// Warm up: first writes allocate tracks from the arena (or the
		// file's preallocation) and fill the scratch pools.
		if err := arr.WriteBlocks(reqs, bufs); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := arr.WriteBlocks(reqs, bufs); err != nil {
				t.Fatal(err)
			}
			if err := arr.ReadBlocks(reqs, bufs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s D=%d: %v allocs per write+read parallel I/O, want 0", c.name, c.d, allocs)
		}
		if err := arr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMemDiskAllocatesWhatItStores checks MemDisk's storage: the tracks a
// batch writes first come from one allocation of exactly their words, a
// rewrite allocates nothing, and tracks cut from one slab keep independent
// contents across batches of every length.
func TestMemDiskAllocatesWhatItStores(t *testing.T) {
	const b, k = 512, 4
	d := NewMemDisk(b)
	block := func(tr int) []Word {
		w := make([]Word, b)
		for i := range w {
			w[i] = Word(tr*b + i)
		}
		return w
	}
	// Written first, so the table's chunk of the measured tracks exists
	// and the table never grows below high.
	const high = 1000
	for _, tr := range []int{trackChunk - 1, high} {
		if err := d.WriteTrack(tr, block(tr)); err != nil {
			t.Fatal(err)
		}
	}
	tracks, bufs := make([]int, k), make([][]Word, k)
	next := 0
	batch := func() {
		for i := range tracks {
			tracks[i], bufs[i] = next+i, block(next+i)
		}
		next += k + 1 // a gap: every run meets k new tracks
	}
	batch()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := d.WriteTracks(tracks, bufs)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; n != 1 || bytes != 8*k*b {
		t.Errorf("first write of %d tracks: %d allocations of %d bytes, want 1 of %d", k, n, bytes, 8*k*b)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := d.WriteTracks(tracks, bufs); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("rewrite of %d tracks: %v allocations, want 0", k, allocs)
	}
	// Batches of 1 … 5 new tracks after the first: contents survive
	// every slab boundary.
	for n := 1; n <= 5; n++ {
		ts, bs := make([]int, n), make([][]Word, n)
		for i := range ts {
			ts[i], bs[i] = next+i, block(next+i)
		}
		if err := d.WriteTracks(ts, bs); err != nil {
			t.Fatal(err)
		}
		next += n + 1
	}
	got := make([]Word, b)
	for tr := 0; tr < next; tr++ {
		err := d.ReadTrack(tr, got)
		if err == ErrTrackOutOfRange {
			continue // a gap
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != Word(tr*b+i) {
				t.Fatalf("track %d word %d = %d, want %d", tr, i, got[i], tr*b+i)
			}
		}
	}
	if d.Tracks() != high+1 {
		t.Errorf("Tracks() = %d, want %d", d.Tracks(), high+1)
	}
}

// TestDiskArrayClosedOp checks that I/O after Close fails with ErrClosed
// instead of deadlocking on the stopped workers.
func TestDiskArrayClosedOp(t *testing.T) {
	arr := NewMemArray(2, 4)
	reqs := []BlockReq{{Disk: 0, Track: 0}}
	bufs := [][]Word{make([]Word, 4)}
	if err := arr.WriteBlocks(reqs, bufs); err != nil {
		t.Fatal(err)
	}
	if err := arr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := arr.ReadBlocks(reqs, bufs); err != ErrClosed {
		t.Errorf("ReadBlocks after Close = %v, want ErrClosed", err)
	}
	if err := arr.WriteBlocks(reqs, bufs); err != ErrClosed {
		t.Errorf("WriteBlocks after Close = %v, want ErrClosed", err)
	}
	// Close must stay idempotent.
	if err := arr.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
}
