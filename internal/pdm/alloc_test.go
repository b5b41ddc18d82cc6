package pdm

import (
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

// TestMemDiskArena checks that arena-backed tracks behave exactly like
// individually allocated ones: contents are independent across tracks and
// survive chunk boundaries.
func TestMemDiskArena(t *testing.T) {
	const b = 8
	d := NewMemDisk(b)
	n := memDiskArenaTracks*2 + 5 // spans three chunks
	src := make([]Word, b)
	for tr := 0; tr < n; tr++ {
		for i := range src {
			src[i] = Word(tr*b + i)
		}
		if err := d.WriteTrack(tr, src); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]Word, b)
	for tr := n - 1; tr >= 0; tr-- {
		if err := d.ReadTrack(tr, got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != Word(tr*b+i) {
				t.Fatalf("track %d word %d = %d, want %d", tr, i, got[i], tr*b+i)
			}
		}
	}
	if d.Tracks() != n {
		t.Errorf("Tracks() = %d, want %d", d.Tracks(), n)
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
