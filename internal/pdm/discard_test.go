package pdm

import (
	"errors"
	"runtime"
	"testing"
)

// mallocs is the heap allocations and bytes f makes.
func mallocs(f func()) (n, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestMemDiskDiscard checks Discard on a MemDisk, directly and through a
// DelayDisk: a discarded track reads ErrTrackOutOfRange, its neighbours
// keep their words, Tracks() does not move, tracks never written are
// ignored, and the first write after a discard takes the discarded words
// back instead of allocating.
func TestMemDiskDiscard(t *testing.T) {
	const b = 64
	for _, c := range []struct {
		name string
		disk func() BatchDisk
	}{
		{"mem", func() BatchDisk { return NewMemDisk(b) }},
		{"delay(mem)", func() BatchDisk { return NewDelayDisk(NewMemDisk(b), 0) }},
	} {
		d := c.disk()
		dd := d.(Discarder)
		tracks, bufs := make([]int, 8), make([][]Word, 8)
		for i := range tracks {
			tracks[i], bufs[i] = i, make([]Word, b)
			for k := range bufs[i] {
				bufs[i][k] = Word(i*b + k)
			}
		}
		if err := d.WriteTracks(tracks, bufs); err != nil {
			t.Fatal(err)
		}
		dd.Discard([]int{2, 5, 9, -1, 1 << 20}) // 9, −1 and 2²⁰ were never written
		if got := d.Tracks(); got != 8 {
			t.Errorf("%s: Tracks() = %d after a discard, want 8", c.name, got)
		}
		got := make([]Word, b)
		for tr := range tracks {
			err := d.ReadTrack(tr, got)
			if tr == 2 || tr == 5 {
				if err != ErrTrackOutOfRange {
					t.Errorf("%s: read of discarded track %d = %v, want ErrTrackOutOfRange", c.name, tr, err)
				}
				continue
			}
			if err != nil || got[b-1] != Word(tr*b+b-1) {
				t.Errorf("%s: track %d reads %v, word %d, after its neighbours' discard", c.name, tr, err, got[b-1])
			}
		}
		again, againBufs := []int{2, 5}, [][]Word{bufs[2], bufs[5]}
		var err error
		if n, bytes := mallocs(func() { err = d.WriteTracks(again, againBufs) }); n != 0 || bytes != 0 {
			t.Errorf("%s: first write of 2 discarded tracks: %d allocations of %d bytes, want none", c.name, n, bytes)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range again {
			if err := d.ReadTrack(tr, got); err != nil || got[0] != Word(tr*b) {
				t.Errorf("%s: rewritten track %d reads %v, word %d, want %d", c.name, tr, err, got[0], tr*b)
			}
		}
		if got := d.Tracks(); got != 8 {
			t.Errorf("%s: Tracks() = %d after the rewrite, want 8", c.name, got)
		}
	}
}

// TestMemDiskSparseTable checks that MemDisk's track table follows the
// tracks written, not the highest one: a disk written at tracks 0 and
// 2²⁰ holds two table chunks and two tracks, where a dense table would
// hold 2²⁰ + 1 entries (24 MB), and Tracks() is still highest + 1. The
// chunk directory, one pointer per 256 tracks, is most of the 54 152
// bytes it allocates (86 928 under -race); the bound is a hundredth of
// the dense table.
func TestMemDiskSparseTable(t *testing.T) {
	const b, high = 8, 1 << 20
	d := NewMemDisk(b)
	var err error
	_, bytes := mallocs(func() {
		for _, tr := range []int{0, high} {
			if err = d.WriteTrack(tr, make([]Word, b)); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	chunks := 0
	for _, c := range d.chunks {
		if c != nil {
			chunks++
		}
	}
	if chunks != 2 {
		t.Errorf("%d table chunks allocated, want 2", chunks)
	}
	if limit := uint64(256 << 10); bytes > limit {
		t.Errorf("writing tracks 0 and %d allocated %d bytes, want at most %d", high, bytes, limit)
	}
	if got := d.Tracks(); got != high+1 {
		t.Errorf("Tracks() = %d, want %d", got, high+1)
	}
	if err := d.ReadTrack(high/2, make([]Word, b)); err != ErrTrackOutOfRange {
		t.Errorf("read of a track between the two = %v, want ErrTrackOutOfRange", err)
	}
}

// TestDiskArrayDiscard checks DiskArray.Discard on MemDisks, directly and
// through DelayDisks: it moves nothing and counts nothing, a later read
// of a discarded block is ErrCheckUninitRead under checked mode (the
// block left the written set) and ErrTrackOutOfRange without it (the disk
// gave the track back), and the blocks it did not name still read.
func TestDiskArrayDiscard(t *testing.T) {
	const d, b = 2, 16
	for _, c := range []struct {
		name    string
		disk    func() Disk
		checked bool
	}{
		{"mem", func() Disk { return NewMemDisk(b) }, false},
		{"mem checked", func() Disk { return NewMemDisk(b) }, true},
		{"delay(mem) checked", func() Disk { return NewDelayDisk(NewMemDisk(b), 0) }, true},
	} {
		disks := []Disk{c.disk(), c.disk()}
		a, err := NewDiskArray(disks)
		if err != nil {
			t.Fatal(err)
		}
		if c.checked {
			a.EnableChecked()
		}
		for tr := range 3 {
			if err := a.WriteBlocks([]BlockReq{{0, tr}, {1, tr}}, blocks(b, d)); err != nil {
				t.Fatal(err)
			}
		}
		before := a.Stats()
		a.Discard([]BlockReq{{0, 1}, {1, 1}, {1, 2}, {0, 9}})
		if got := a.Stats(); got != before {
			t.Errorf("%s: Discard changed the accounting: %v, then %v", c.name, before, got)
		}
		want := ErrTrackOutOfRange
		if c.checked {
			want = ErrCheckUninitRead
		}
		for _, r := range []BlockReq{{0, 1}, {1, 1}, {1, 2}} {
			if err := a.ReadBlocks([]BlockReq{r}, blocks(b, 1)); !errors.Is(err, want) {
				t.Errorf("%s: read of discarded %v = %v, want %v", c.name, r, err, want)
			}
		}
		for _, r := range []BlockReq{{0, 0}, {1, 0}, {0, 2}} {
			if err := a.ReadBlocks([]BlockReq{r}, blocks(b, 1)); err != nil {
				t.Errorf("%s: read of kept %v = %v", c.name, r, err)
			}
		}
		for i, dk := range disks {
			if got := dk.Tracks(); got != 3 {
				t.Errorf("%s: disk %d Tracks() = %d after Discard, want 3", c.name, i, got)
			}
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFileDiskArrayDiscardFree checks that an array whose disks cannot
// discard pays nothing for Discard: FileDisk is no Discarder, so the call
// makes no allocation and no syscall, and the blocks keep their words.
func TestFileDiskArrayDiscardFree(t *testing.T) {
	const d, b = 2, 512
	disks := []Disk{newTestFileDisk(t, b, false), newTestFileDisk(t, b, false)}
	a, err := NewDiskArray(disks)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	reqs := []BlockReq{{0, 0}, {1, 0}}
	bufs := blocks(b, d)
	bufs[1][0] = 7
	if err := a.WriteBlocks(reqs, bufs); err != nil {
		t.Fatal(err)
	}
	calls := SyscallsOf(a)
	if allocs := testing.AllocsPerRun(100, func() { a.Discard(reqs) }); allocs != 0 {
		t.Errorf("Discard on file disks: %v allocations, want 0", allocs)
	}
	if got := SyscallsOf(a); got != calls {
		t.Errorf("Discard on file disks issued %d syscalls, want 0", got-calls)
	}
	got := blocks(b, d)
	if err := a.ReadBlocks(reqs, got); err != nil || got[1][0] != 7 {
		t.Errorf("read after Discard on file disks = %v, word %d, want the words written", err, got[1][0])
	}
}
