package pdm

import (
	"errors"
	"testing"
)

func mkBufs(n, b int) [][]Word {
	bufs := make([][]Word, n)
	for i := range bufs {
		bufs[i] = make([]Word, b)
	}
	return bufs
}

func TestDiskArrayParallelRoundTrip(t *testing.T) {
	const d, b = 4, 8
	a := NewMemArray(d, b)

	// One fully parallel write: block i goes to disk i, track 0.
	reqs := make([]BlockReq, d)
	bufs := mkBufs(d, b)
	for i := range reqs {
		reqs[i] = BlockReq{Disk: i, Track: 0}
		for j := range bufs[i] {
			bufs[i][j] = Word(i*1000 + j)
		}
	}
	if err := a.WriteBlocks(reqs, bufs); err != nil {
		t.Fatalf("WriteBlocks: %v", err)
	}

	got := mkBufs(d, b)
	if err := a.ReadBlocks(reqs, got); err != nil {
		t.Fatalf("ReadBlocks: %v", err)
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != Word(i*1000+j) {
				t.Fatalf("disk %d word %d = %d, want %d", i, j, got[i][j], i*1000+j)
			}
		}
	}

	s := a.Stats()
	if s.ParallelOps != 2 || s.ReadOps != 1 || s.WriteOps != 1 {
		t.Errorf("stats ops = %+v, want 1 read + 1 write", s)
	}
	if s.BlocksMoved != 2*d {
		t.Errorf("BlocksMoved = %d, want %d", s.BlocksMoved, 2*d)
	}
	if s.FullOps != 2 {
		t.Errorf("FullOps = %d, want 2", s.FullOps)
	}
	if f := s.Fullness(d); f != 1.0 {
		t.Errorf("Fullness = %v, want 1.0", f)
	}
}

func TestDiskArrayRejectsConflict(t *testing.T) {
	a := NewMemArray(3, 4)
	reqs := []BlockReq{{Disk: 1, Track: 0}, {Disk: 1, Track: 1}}
	err := a.WriteBlocks(reqs, mkBufs(2, 4))
	if !errors.Is(err, ErrDiskConflict) {
		t.Fatalf("conflicting write err = %v, want ErrDiskConflict", err)
	}
	if s := a.Stats(); s.ParallelOps != 0 {
		t.Errorf("failed op was counted: %+v", s)
	}
}

func TestDiskArrayRejectsTooManyBlocks(t *testing.T) {
	a := NewMemArray(2, 4)
	reqs := []BlockReq{{0, 0}, {1, 0}, {0, 1}}
	err := a.WriteBlocks(reqs, mkBufs(3, 4))
	if !errors.Is(err, ErrDiskConflict) {
		t.Fatalf("err = %v, want ErrDiskConflict", err)
	}
}

func TestDiskArrayRejectsBadDiskIndex(t *testing.T) {
	a := NewMemArray(2, 4)
	if err := a.WriteBlocks([]BlockReq{{Disk: 2, Track: 0}}, mkBufs(1, 4)); err == nil {
		t.Fatal("out-of-range disk accepted")
	}
	if err := a.WriteBlocks([]BlockReq{{Disk: -1, Track: 0}}, mkBufs(1, 4)); err == nil {
		t.Fatal("negative disk accepted")
	}
}

func TestDiskArrayMismatchedBuffers(t *testing.T) {
	a := NewMemArray(2, 4)
	if err := a.WriteBlocks([]BlockReq{{0, 0}}, mkBufs(2, 4)); err == nil {
		t.Fatal("mismatched req/buf count accepted")
	}
}

func TestDiskArrayEmptyOpIsFree(t *testing.T) {
	a := NewMemArray(2, 4)
	if err := a.WriteBlocks(nil, nil); err != nil {
		t.Fatalf("empty write: %v", err)
	}
	if err := a.ReadBlocks(nil, nil); err != nil {
		t.Fatalf("empty read: %v", err)
	}
	if s := a.Stats(); s.ParallelOps != 0 {
		t.Errorf("empty ops were counted: %+v", s)
	}
}

func TestDiskArrayPartialOpAccounting(t *testing.T) {
	a := NewMemArray(4, 2)
	// Use only 2 of 4 disks: still one parallel op, not a full one.
	reqs := []BlockReq{{Disk: 0, Track: 0}, {Disk: 2, Track: 0}}
	if err := a.WriteBlocks(reqs, mkBufs(2, 2)); err != nil {
		t.Fatal(err)
	}
	s := a.Stats()
	if s.ParallelOps != 1 || s.FullOps != 0 || s.BlocksMoved != 2 {
		t.Errorf("stats = %+v, want 1 partial op moving 2 blocks", s)
	}
	if f := s.Fullness(4); f != 0.5 {
		t.Errorf("Fullness = %v, want 0.5", f)
	}
}

func TestDiskArrayHeterogeneousBlockSizeRejected(t *testing.T) {
	_, err := NewDiskArray([]Disk{NewMemDisk(4), NewMemDisk(8)})
	if err == nil {
		t.Fatal("heterogeneous block sizes accepted")
	}
}

func TestDiskArrayManyDisksConflictCheck(t *testing.T) {
	// >64 disks exercises the map-based duplicate detection.
	a := NewMemArray(100, 2)
	reqs := []BlockReq{{Disk: 70, Track: 0}, {Disk: 70, Track: 1}}
	if err := a.WriteBlocks(reqs, mkBufs(2, 2)); !errors.Is(err, ErrDiskConflict) {
		t.Fatalf("err = %v, want ErrDiskConflict", err)
	}
	ok := []BlockReq{{Disk: 70, Track: 0}, {Disk: 99, Track: 0}}
	if err := a.WriteBlocks(ok, mkBufs(2, 2)); err != nil {
		t.Fatalf("valid write on many-disk array: %v", err)
	}
}

func TestIOStatsAdd(t *testing.T) {
	s := IOStats{ParallelOps: 1, ReadOps: 1, BlocksMoved: 2, WordsMoved: 8, FullOps: 1}
	s.Add(IOStats{ParallelOps: 2, WriteOps: 2, BlocksMoved: 3, WordsMoved: 12})
	if s.ParallelOps != 3 || s.ReadOps != 1 || s.WriteOps != 2 || s.BlocksMoved != 5 || s.WordsMoved != 20 || s.FullOps != 1 {
		t.Errorf("Add result = %+v", s)
	}
}

func TestIOStatsFullness(t *testing.T) {
	s := IOStats{ParallelOps: 4, BlocksMoved: 6}
	if got := s.Fullness(2); got != 0.75 {
		t.Errorf("Fullness(2) = %v, want 0.75", got)
	}
	for _, d := range []int{0, -1} {
		if got := s.Fullness(d); got != 0 {
			t.Errorf("Fullness(%d) = %v, want 0", d, got)
		}
	}
	idle := IOStats{}
	if got := idle.Fullness(2); got != 1 {
		t.Errorf("idle Fullness(2) = %v, want 1", got)
	}
	if got := idle.Fullness(0); got != 0 {
		t.Errorf("idle Fullness(0) = %v, want 0", got)
	}
}

func TestFaultyDiskInjectsAfterBudget(t *testing.T) {
	inner := NewMemDisk(2)
	fd := NewFaultyDisk(inner, 2)
	blk := []Word{1, 2}
	if err := fd.WriteTrack(0, blk); err != nil {
		t.Fatalf("op 1: %v", err)
	}
	if err := fd.WriteTrack(1, blk); err != nil {
		t.Fatalf("op 2: %v", err)
	}
	if err := fd.WriteTrack(2, blk); !errors.Is(err, ErrInjected) {
		t.Fatalf("op 3 err = %v, want ErrInjected", err)
	}
	if err := fd.ReadTrack(0, make([]Word, 2)); !errors.Is(err, ErrInjected) {
		t.Fatalf("read after fault err = %v, want ErrInjected", err)
	}
}

func TestFaultyDiskDisabled(t *testing.T) {
	fd := NewFaultyDisk(NewMemDisk(2), -1)
	for i := 0; i < 10; i++ {
		if err := fd.WriteTrack(i, []Word{0, 0}); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
}

func TestDiskArraySurfacesDiskError(t *testing.T) {
	disks := []Disk{NewMemDisk(2), NewFaultyDisk(NewMemDisk(2), 0)}
	a, err := NewDiskArray(disks)
	if err != nil {
		t.Fatal(err)
	}
	werr := a.WriteBlocks([]BlockReq{{0, 0}, {1, 0}}, mkBufs(2, 2))
	if !errors.Is(werr, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", werr)
	}
}

func TestTimeModelThroughputSaturates(t *testing.T) {
	m := DefaultTimeModel()
	// Throughput must be monotone in block size and approach the media rate.
	prev := 0.0
	for _, b := range []int{1, 8, 64, 512, 4096, 1 << 15, 1 << 20} {
		tp := m.Throughput(b)
		if tp <= prev {
			t.Fatalf("throughput not increasing at b=%d: %v <= %v", b, tp, prev)
		}
		prev = tp
	}
	if prev > m.TransferBytesPerSec {
		t.Fatalf("throughput %v exceeds media rate %v", prev, m.TransferBytesPerSec)
	}
	if prev < 0.9*m.TransferBytesPerSec {
		t.Fatalf("throughput at 1Mi words = %v, want ≥ 90%% of media rate %v", prev, m.TransferBytesPerSec)
	}
}

func TestTimeModelIOTime(t *testing.T) {
	m := DefaultTimeModel()
	one := m.OpTime(1000)
	if got := m.IOTime(10, 1000); got != 10*one {
		t.Fatalf("IOTime(10) = %v, want %v", got, 10*one)
	}
}
