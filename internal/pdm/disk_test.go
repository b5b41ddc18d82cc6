package pdm

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestMemDiskRoundTrip(t *testing.T) {
	d := NewMemDisk(4)
	src := []Word{1, 2, 3, 4}
	if err := d.WriteTrack(0, src); err != nil {
		t.Fatalf("WriteTrack: %v", err)
	}
	dst := make([]Word, 4)
	if err := d.ReadTrack(0, dst); err != nil {
		t.Fatalf("ReadTrack: %v", err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], src[i])
		}
	}
}

func TestMemDiskSparseTracks(t *testing.T) {
	d := NewMemDisk(2)
	if err := d.WriteTrack(10, []Word{7, 8}); err != nil {
		t.Fatalf("WriteTrack(10): %v", err)
	}
	if got := d.Tracks(); got != 11 {
		t.Fatalf("Tracks = %d, want 11", got)
	}
	// Track 5 was never written.
	err := d.ReadTrack(5, make([]Word, 2))
	if !errors.Is(err, ErrTrackOutOfRange) {
		t.Fatalf("ReadTrack(5) err = %v, want ErrTrackOutOfRange", err)
	}
}

func TestMemDiskErrors(t *testing.T) {
	d := NewMemDisk(3)
	if err := d.WriteTrack(0, []Word{1, 2}); !errors.Is(err, ErrBadBlockSize) {
		t.Errorf("short write err = %v, want ErrBadBlockSize", err)
	}
	if err := d.ReadTrack(0, make([]Word, 4)); !errors.Is(err, ErrBadBlockSize) {
		t.Errorf("long read err = %v, want ErrBadBlockSize", err)
	}
	if err := d.WriteTrack(-1, []Word{1, 2, 3}); !errors.Is(err, ErrTrackOutOfRange) {
		t.Errorf("negative track err = %v, want ErrTrackOutOfRange", err)
	}
	if err := d.ReadTrack(-1, make([]Word, 3)); !errors.Is(err, ErrTrackOutOfRange) {
		t.Errorf("negative read err = %v, want ErrTrackOutOfRange", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := d.WriteTrack(0, []Word{1, 2, 3}); !errors.Is(err, ErrClosed) {
		t.Errorf("write after close err = %v, want ErrClosed", err)
	}
	if err := d.ReadTrack(0, make([]Word, 3)); !errors.Is(err, ErrClosed) {
		t.Errorf("read after close err = %v, want ErrClosed", err)
	}
}

func TestMemDiskOverwrite(t *testing.T) {
	d := NewMemDisk(2)
	if err := d.WriteTrack(0, []Word{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteTrack(0, []Word{9, 9}); err != nil {
		t.Fatal(err)
	}
	dst := make([]Word, 2)
	if err := d.ReadTrack(0, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 9 || dst[1] != 9 {
		t.Fatalf("overwrite not visible: %v", dst)
	}
}

func TestMemDiskWriteCopiesBuffer(t *testing.T) {
	d := NewMemDisk(2)
	src := []Word{1, 2}
	if err := d.WriteTrack(0, src); err != nil {
		t.Fatal(err)
	}
	src[0] = 99 // mutate caller buffer after write
	dst := make([]Word, 2)
	if err := d.ReadTrack(0, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 1 {
		t.Fatalf("disk aliased the caller's buffer: got %d, want 1", dst[0])
	}
}

func TestFileDiskRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d0.disk")
	d, err := NewFileDisk(path, 8)
	if err != nil {
		t.Fatalf("NewFileDisk: %v", err)
	}
	defer d.Close()

	for track := 0; track < 5; track++ {
		src := make([]Word, 8)
		for i := range src {
			src[i] = Word(track*100 + i)
		}
		if err := d.WriteTrack(track, src); err != nil {
			t.Fatalf("WriteTrack(%d): %v", track, err)
		}
	}
	if got := d.Tracks(); got != 5 {
		t.Fatalf("Tracks = %d, want 5", got)
	}
	dst := make([]Word, 8)
	if err := d.ReadTrack(3, dst); err != nil {
		t.Fatalf("ReadTrack(3): %v", err)
	}
	for i := range dst {
		if dst[i] != Word(300+i) {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], 300+i)
		}
	}
	if err := d.ReadTrack(7, dst); !errors.Is(err, ErrTrackOutOfRange) {
		t.Fatalf("read unwritten track err = %v, want ErrTrackOutOfRange", err)
	}
}

func TestFileDiskErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d1.disk")
	d, err := NewFileDisk(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteTrack(0, []Word{1}); !errors.Is(err, ErrBadBlockSize) {
		t.Errorf("short write err = %v, want ErrBadBlockSize", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil { // double close is fine
		t.Errorf("double Close: %v", err)
	}
	if err := d.WriteTrack(0, make([]Word, 4)); !errors.Is(err, ErrClosed) {
		t.Errorf("write after close err = %v, want ErrClosed", err)
	}
}

// A disk made over an earlier run's file starts empty on a new file — the
// old one is unlinked, not truncated in place, so that ext4 does not take
// the rewrite for a replace-by-truncate and flush it at close — and what
// is not a regular file is left alone.
func TestFileDiskReplacesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d0.disk")
	old, err := NewFileDisk(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := old.WriteTrack(2, []Word{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	// A second link shows what became of the old file: truncated in place
	// it would be empty under both names.
	kept := filepath.Join(dir, "kept")
	if err := os.Link(path, kept); err != nil {
		t.Skipf("no hard links here: %v", err)
	}
	before, err := os.Stat(kept)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewFileDisk(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(kept); err != nil {
		t.Fatal(err)
	} else if before.Size() == 0 || fi.Size() != before.Size() {
		t.Errorf("the earlier file went from %d to %d bytes: truncated in place; want it unlinked", before.Size(), fi.Size())
	}
	if after.Size() != 0 || d.Tracks() != 0 {
		t.Errorf("new disk has %d bytes, %d tracks; want none", after.Size(), d.Tracks())
	}
	if err := d.ReadTrack(2, make([]Word, 4)); !errors.Is(err, ErrTrackOutOfRange) {
		t.Errorf("read of the earlier disk's track err = %v, want ErrTrackOutOfRange", err)
	}

	sub := filepath.Join(dir, "sub")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if bad, err := NewFileDisk(sub, 4); err == nil {
		bad.Close()
		t.Error("NewFileDisk over a directory succeeded")
	}
	if fi, err := os.Stat(sub); err != nil || !fi.IsDir() {
		t.Errorf("the directory at the disk's path is gone (%v)", err)
	}
}

// Property: for any sequence of (track, payload) writes, the final read of
// each track returns the last payload written to it. Exercises MemDisk and
// FileDisk through the same script.
func TestDiskLastWriteWinsProperty(t *testing.T) {
	const b = 4
	check := func(mk func() Disk) func(script []uint8) bool {
		return func(script []uint8) bool {
			d := mk()
			defer d.Close()
			last := map[int]Word{}
			for i, s := range script {
				track := int(s % 16)
				blk := make([]Word, b)
				blk[0] = Word(i + 1)
				if err := d.WriteTrack(track, blk); err != nil {
					return false
				}
				last[track] = Word(i + 1)
			}
			for track, want := range last {
				dst := make([]Word, b)
				if err := d.ReadTrack(track, dst); err != nil {
					return false
				}
				if dst[0] != want {
					return false
				}
			}
			return true
		}
	}
	if err := quick.Check(check(func() Disk { return NewMemDisk(b) }), &quick.Config{MaxCount: 50}); err != nil {
		t.Errorf("MemDisk property: %v", err)
	}
	dir := t.TempDir()
	n := 0
	if err := quick.Check(check(func() Disk {
		n++
		fd, err := NewFileDisk(filepath.Join(dir, filepath.Base(t.Name())+string(rune('a'+n%26))+".disk"), b)
		if err != nil {
			t.Fatal(err)
		}
		return fd
	}), &quick.Config{MaxCount: 10}); err != nil {
		t.Errorf("FileDisk property: %v", err)
	}
}

func TestBlocksFor(t *testing.T) {
	cases := []struct{ n, b, want int }{
		{0, 4, 0}, {-3, 4, 0}, {1, 4, 1}, {4, 4, 1}, {5, 4, 2}, {8, 4, 2}, {9, 4, 3},
	}
	for _, c := range cases {
		if got := BlocksFor(c.n, c.b); got != c.want {
			t.Errorf("BlocksFor(%d,%d) = %d, want %d", c.n, c.b, got, c.want)
		}
	}
}
