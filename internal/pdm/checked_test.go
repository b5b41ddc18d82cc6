package pdm

import (
	"errors"
	"strings"
	"testing"
)

// fault-injection tests: one per violation class, each asserting both the
// sentinel and a descriptive message — silent corruption is the failure
// mode the sanitizer exists to prevent.

func checkedArray(t *testing.T, d, b int) *DiskArray {
	t.Helper()
	a := NewMemArray(d, b)
	t.Cleanup(func() { _ = a.Close() })
	a.EnableChecked()
	return a
}

func blocks(b, n int) [][]Word {
	out := make([][]Word, n)
	for i := range out {
		out[i] = make([]Word, b)
	}
	return out
}

func TestCheckedBoundsDisk(t *testing.T) {
	a := checkedArray(t, 2, 4)
	err := a.WriteBlocks([]BlockReq{{Disk: 2, Track: 0}}, blocks(4, 1))
	if !errors.Is(err, ErrCheckBounds) {
		t.Fatalf("disk out of range: got %v, want ErrCheckBounds", err)
	}
	if !strings.Contains(err.Error(), "disk 2") || !strings.Contains(err.Error(), "D=2") {
		t.Errorf("error should name the offending disk and the bound: %v", err)
	}
}

func TestCheckedBoundsNegativeTrack(t *testing.T) {
	a := checkedArray(t, 2, 4)
	err := a.WriteBlocks([]BlockReq{{Disk: 0, Track: -1}}, blocks(4, 1))
	if !errors.Is(err, ErrCheckBounds) {
		t.Fatalf("negative track: got %v, want ErrCheckBounds", err)
	}
	if !strings.Contains(err.Error(), "track -1") {
		t.Errorf("error should name the offending track: %v", err)
	}
}

func TestCheckedOverlappingWrites(t *testing.T) {
	a := checkedArray(t, 2, 4)
	err := a.WriteBlocks([]BlockReq{{Disk: 0, Track: 3}, {Disk: 0, Track: 3}}, blocks(4, 2))
	if !errors.Is(err, ErrCheckOverlap) {
		t.Fatalf("overlapping writes: got %v, want ErrCheckOverlap", err)
	}
	if !strings.Contains(err.Error(), "disk 0 track 3") {
		t.Errorf("error should name the contested block: %v", err)
	}
	// The overlap sentinel must win over the generic disk-conflict error:
	// it names the corruption, not just the scheduling violation.
	if errors.Is(err, ErrDiskConflict) {
		t.Errorf("overlap should be reported as ErrCheckOverlap, not ErrDiskConflict: %v", err)
	}
}

func TestCheckedUninitializedRead(t *testing.T) {
	a := checkedArray(t, 2, 4)
	err := a.ReadBlocks([]BlockReq{{Disk: 1, Track: 5}}, blocks(4, 1))
	if !errors.Is(err, ErrCheckUninitRead) {
		t.Fatalf("uninitialised read: got %v, want ErrCheckUninitRead", err)
	}
	if !strings.Contains(err.Error(), "disk 1 track 5") {
		t.Errorf("error should name the unwritten block: %v", err)
	}
	// After a write the same read must succeed.
	if err := a.WriteBlocks([]BlockReq{{Disk: 1, Track: 5}}, blocks(4, 1)); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := a.ReadBlocks([]BlockReq{{Disk: 1, Track: 5}}, blocks(4, 1)); err != nil {
		t.Fatalf("read after write still rejected: %v", err)
	}
}

func TestCheckedFailedWriteNotCommitted(t *testing.T) {
	a := checkedArray(t, 2, 4)
	// A write rejected by validation must not mark its blocks initialised.
	if err := a.WriteBlocks([]BlockReq{{Disk: 0, Track: 1}, {Disk: 0, Track: 1}}, blocks(4, 2)); err == nil {
		t.Fatal("overlapping write unexpectedly accepted")
	}
	err := a.ReadBlocks([]BlockReq{{Disk: 0, Track: 1}}, blocks(4, 1))
	if !errors.Is(err, ErrCheckUninitRead) {
		t.Fatalf("read after failed write: got %v, want ErrCheckUninitRead", err)
	}
}

func TestCheckedRejectedOpNotCounted(t *testing.T) {
	a := checkedArray(t, 2, 4)
	before := a.Stats().ParallelOps
	if err := a.WriteBlocks([]BlockReq{{Disk: 5, Track: 0}}, blocks(4, 1)); err == nil {
		t.Fatal("out-of-bounds write unexpectedly accepted")
	}
	if got := a.Stats().ParallelOps; got != before {
		t.Errorf("rejected op was counted: ops %d -> %d", before, got)
	}
}

// Use-after-begin poison tests: in checked mode a split-phase write
// loans its buffers to the workers — the caller's copies are
// poison-filled until Wait, which verifies the sentinel and restores
// the original contents.

func TestCheckedUseAfterBeginFires(t *testing.T) {
	a := checkedArray(t, 2, 4)
	bufs := blocks(4, 2)
	for i := range bufs {
		for j := range bufs[i] {
			bufs[i][j] = Word(100*i + j)
		}
	}
	p, err := a.BeginWriteBlocks([]BlockReq{{Disk: 0, Track: 0}, {Disk: 1, Track: 0}}, bufs)
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	// Deliberate contract violation (fault injection): store into the
	// loaned buffer before the matching Wait.
	bufs[1][2] = 7777
	err = p.Wait()
	if !errors.Is(err, ErrCheckUseAfterBegin) {
		t.Fatalf("Wait after in-flight store: err = %v, want ErrCheckUseAfterBegin", err)
	}
	if !strings.Contains(err.Error(), "buffer 1 word 2") {
		t.Errorf("error does not locate the tampered word: %v", err)
	}
}

func TestCheckedUseAfterBeginRestores(t *testing.T) {
	a := checkedArray(t, 2, 4)
	bufs := blocks(4, 2)
	for i := range bufs {
		for j := range bufs[i] {
			bufs[i][j] = Word(100*i + j)
		}
	}
	reqs := []BlockReq{{Disk: 0, Track: 1}, {Disk: 1, Track: 1}}
	p, err := a.BeginWriteBlocks(reqs, bufs)
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("clean wait: %v", err)
	}
	// Wait must hand back the original contents, bit-identical.
	for i := range bufs {
		for j, w := range bufs[i] {
			if w != Word(100*i+j) {
				t.Fatalf("buffer %d word %d not restored: got %#x", i, j, w)
			}
		}
	}
	// And the disks must hold the originals, not the poison: read back
	// through the checked array (destinations are poisoned at begin and
	// overwritten by the workers before Wait returns).
	got := blocks(4, 2)
	if err := a.ReadBlocks(reqs, got); err != nil {
		t.Fatalf("read back: %v", err)
	}
	for i := range got {
		for j, w := range got[i] {
			if w != Word(100*i+j) {
				t.Fatalf("disk block %d word %d: got %#x, want %#x", i, j, w, 100*i+j)
			}
		}
	}
}

func TestCheckedOuterSliceRecycleIsNotTamper(t *testing.T) {
	// Drivers recycle the outer [][]Word header slice between begins
	// (SplitBlocksInto(s.bufs[:0], ...)); the loan covers the buffer
	// data only, so this must not trip the poison verifier.
	a := checkedArray(t, 1, 4)
	data := make([]Word, 4)
	for j := range data {
		data[j] = Word(j + 1)
	}
	bufs := [][]Word{data}
	p, err := a.BeginWriteBlocks([]BlockReq{{Disk: 0, Track: 0}}, bufs)
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	other := make([]Word, 4)
	bufs[0] = other // recycle the header slice, not the loaned data
	if err := p.Wait(); err != nil {
		t.Fatalf("wait after header recycle: %v", err)
	}
	for j, w := range data {
		if w != Word(j+1) {
			t.Fatalf("loaned data word %d not restored: got %#x", j, w)
		}
	}
}
