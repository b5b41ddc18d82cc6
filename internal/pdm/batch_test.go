package pdm

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"
)

// fillWords stamps each buffer with values derived from (seed, track) so
// any cross-track mixup is visible in a later read-back.
func fillWords(buf []Word, seed, track int) {
	for i := range buf {
		buf[i] = Word(seed)<<32 ^ Word(track)<<16 ^ Word(i)
	}
}

func newTestFileDisk(t *testing.T, b int, direct bool) *FileDisk {
	t.Helper()
	path := filepath.Join(t.TempDir(), "batch.disk")
	d, err := NewFileDiskOpts(path, b, FileDiskOptions{DirectIO: direct})
	if err != nil {
		t.Fatalf("NewFileDiskOpts: %v", err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d
}

// batchDisks enumerates the BatchDisk implementations under test: the
// in-memory reference, the buffered file disk, the direct-I/O file disk
// when the filesystem grants it, a fixed-delay wrapper (zero delay, so
// only the forwarding logic is exercised) and a model disk whose
// microsecond positioning makes every transfer sleep.
func batchDisks(t *testing.T, b int) map[string]BatchDisk {
	t.Helper()
	ds := map[string]BatchDisk{
		"mem":           NewMemDisk(b),
		"file":          newTestFileDisk(t, b, false),
		"delay-wrapped": NewDelayDisk(NewMemDisk(b), 0),
		"model":         NewModelDisk(NewMemDisk(b), TimeModel{Seek: time.Microsecond, TransferBytesPerSec: 1e9}),
	}
	if fd := newTestFileDisk(t, b, true); fd.DirectIO() {
		ds["file-direct"] = fd
	}
	return ds
}

// TestBatchTracksMatchSingleTrackLoop is the BatchDisk contract property
// test: for every implementation, a random schedule of batched writes and
// reads must be indistinguishable from the equivalent single-track loop,
// which runs alongside on a MemDisk reference.
func TestBatchTracksMatchSingleTrackLoop(t *testing.T) {
	const b = 64 // 8·64 = 512: direct-I/O capable
	rng := rand.New(rand.NewSource(20260807))
	for name, d := range batchDisks(t, b) {
		t.Run(name, func(t *testing.T) {
			ref := NewMemDisk(b)
			written := map[int]bool{}
			for round := 0; round < 60; round++ {
				k := 1 + rng.Intn(MaxBatchTracks)
				// Random strictly-ascending tracks with occasional
				// contiguous runs (the run-coalescing path) and gaps.
				tracks := make([]int, 0, k)
				tr := rng.Intn(4)
				for len(tracks) < k {
					tracks = append(tracks, tr)
					if rng.Intn(3) == 0 {
						tr += 1 + rng.Intn(5) // gap: new run
					} else {
						tr++ // extend the contiguous run
					}
				}
				bufs := make([][]Word, k)
				for i := range bufs {
					bufs[i] = make([]Word, b)
				}
				if round == 0 || rng.Intn(2) == 0 {
					for i, tk := range tracks {
						fillWords(bufs[i], round, tk)
						if err := ref.WriteTrack(tk, bufs[i]); err != nil {
							t.Fatalf("round %d: reference write %d: %v", round, tk, err)
						}
						written[tk] = true
					}
					if err := d.WriteTracks(tracks, bufs); err != nil {
						t.Fatalf("round %d: WriteTracks%v: %v", round, tracks, err)
					}
				} else {
					// Only read tracks the schedule has actually written:
					// never-written tracks are out of range on MemDisk.
					in := tracks[:0]
					for _, tk := range tracks {
						if written[tk] {
							in = append(in, tk)
						}
					}
					if len(in) == 0 {
						continue
					}
					tracks, bufs = in, bufs[:len(in)]
					want := make([]Word, b)
					if err := d.ReadTracks(tracks, bufs); err != nil {
						t.Fatalf("round %d: ReadTracks%v: %v", round, tracks, err)
					}
					for i, tk := range tracks {
						if err := ref.ReadTrack(tk, want); err != nil {
							t.Fatalf("round %d: reference read %d: %v", round, tk, err)
						}
						for j := range want {
							if bufs[i][j] != want[j] {
								t.Fatalf("round %d: track %d word %d = %#x, reference %#x",
									round, tk, j, bufs[i][j], want[j])
							}
						}
					}
				}
			}
		})
	}
}

// TestBatchContractViolations checks that every implementation enforces
// the shared validateBatch contract before touching the disk.
func TestBatchContractViolations(t *testing.T) {
	const b = 8
	seed := make([][]Word, 3)
	for i := range seed {
		seed[i] = make([]Word, b)
	}
	for name, d := range batchDisks(t, b) {
		t.Run(name, func(t *testing.T) {
			if err := d.WriteTracks([]int{0, 1, 2}, seed); err != nil {
				t.Fatalf("seed write: %v", err)
			}
			buf2 := [][]Word{make([]Word, b), make([]Word, b)}
			cases := []struct {
				name   string
				tracks []int
				bufs   [][]Word
			}{
				{"length mismatch", []int{0}, buf2},
				{"descending", []int{1, 0}, buf2},
				{"duplicate", []int{1, 1}, buf2},
				{"negative", []int{-1, 0}, buf2},
				{"bad block size", []int{0, 1}, [][]Word{make([]Word, b-1), make([]Word, b)}},
			}
			for _, c := range cases {
				if err := d.ReadTracks(c.tracks, c.bufs); err == nil {
					t.Errorf("ReadTracks %s: accepted", c.name)
				}
				if err := d.WriteTracks(c.tracks, c.bufs); err == nil {
					t.Errorf("WriteTracks %s: accepted", c.name)
				}
			}
			if err := d.ReadTracks(nil, nil); err != nil {
				t.Errorf("empty batch: %v", err)
			}
			over := make([]int, MaxBatchTracks+1)
			overBufs := make([][]Word, MaxBatchTracks+1)
			for i := range over {
				over[i], overBufs[i] = i, seed[0]
			}
			if err := d.ReadTracks(over, overBufs); err == nil {
				t.Errorf("oversized batch: accepted %d tracks", len(over))
			}
			if err := d.ReadTracks([]int{0, 5}, buf2); !errors.Is(err, ErrTrackOutOfRange) {
				t.Errorf("read past high-water mark: err = %v, want ErrTrackOutOfRange", err)
			}
		})
	}
}

// TestPerTrackErrorContract pins the sentinel errors of the per-track
// calls on every BatchDisk: a buffer of the wrong size is ErrBadBlockSize,
// a negative track or a read past the written tracks ErrTrackOutOfRange,
// and any transfer after Close ErrClosed.
func TestPerTrackErrorContract(t *testing.T) {
	const b = 64
	for name, d := range batchDisks(t, b) {
		t.Run(name, func(t *testing.T) {
			for tk := 0; tk < 3; tk++ {
				if err := d.WriteTrack(tk, make([]Word, b)); err != nil {
					t.Fatalf("write track %d: %v", tk, err)
				}
			}
			check := func(what string, err, want error) {
				t.Helper()
				if !errors.Is(err, want) {
					t.Errorf("%s: err = %v, want %v", what, err, want)
				}
			}
			check("short write", d.WriteTrack(0, make([]Word, b-1)), ErrBadBlockSize)
			check("long write", d.WriteTrack(0, make([]Word, b+1)), ErrBadBlockSize)
			check("short read", d.ReadTrack(0, make([]Word, b-1)), ErrBadBlockSize)
			check("long read", d.ReadTrack(0, make([]Word, b+1)), ErrBadBlockSize)
			check("negative write", d.WriteTrack(-1, make([]Word, b)), ErrTrackOutOfRange)
			check("negative read", d.ReadTrack(-1, make([]Word, b)), ErrTrackOutOfRange)
			check("read past the high-water mark", d.ReadTrack(3, make([]Word, b)), ErrTrackOutOfRange)
			if err := d.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			check("read after Close", d.ReadTrack(0, make([]Word, b)), ErrClosed)
			check("write after Close", d.WriteTrack(0, make([]Word, b)), ErrClosed)
			check("new track after Close", d.WriteTrack(5, make([]Word, b)), ErrClosed)
		})
	}
}

// poisonDisk is a BatchDisk over a MemDisk with one poisoned track: a
// batch that holds it fails as a whole, a per-track call fails only on
// it. Every transfer first waits for gate, so the test can queue a run of
// requests behind the first one for the worker to coalesce. Multi-track
// batches that held the poisoned track are logged in hits.
type poisonDisk struct {
	inner  *MemDisk
	poison int
	gate   chan struct{}
	mu     sync.Mutex
	hits   [][]int
}

func (d *poisonDisk) check(tracks []int) error {
	<-d.gate
	for _, tk := range tracks {
		if tk == d.poison {
			if len(tracks) > 1 {
				d.mu.Lock()
				d.hits = append(d.hits, append([]int(nil), tracks...))
				d.mu.Unlock()
			}
			return ErrInjected
		}
	}
	return nil
}

func (d *poisonDisk) ReadTrack(t int, dst []Word) error {
	if err := d.check([]int{t}); err != nil {
		return err
	}
	return d.inner.ReadTrack(t, dst)
}

func (d *poisonDisk) WriteTrack(t int, src []Word) error {
	if err := d.check([]int{t}); err != nil {
		return err
	}
	return d.inner.WriteTrack(t, src)
}

func (d *poisonDisk) ReadTracks(tracks []int, bufs [][]Word) error {
	if err := d.check(tracks); err != nil {
		return err
	}
	return d.inner.ReadTracks(tracks, bufs)
}

func (d *poisonDisk) WriteTracks(tracks []int, bufs [][]Word) error {
	if err := d.check(tracks); err != nil {
		return err
	}
	return d.inner.WriteTracks(tracks, bufs)
}

func (d *poisonDisk) BlockSize() int { return d.inner.BlockSize() }
func (d *poisonDisk) Tracks() int    { return d.inner.Tracks() }
func (d *poisonDisk) Close() error   { return d.inner.Close() }

// TestBatchFailureAttributedPerTransfer holds the workers' rule for a
// coalesced batch that fails: each transfer in it is re-issued on its
// own, so only the one that fails alone reports the error, and every
// other request completes as if it had never been coalesced.
func TestBatchFailureAttributedPerTransfer(t *testing.T) {
	const (
		b      = 4
		n      = 9 // the held first request and eight queued behind it
		poison = 5
	)
	for _, read := range []bool{true, false} {
		name, seed := "write", 2 // a write stamps seed 2 over seed 1
		if read {
			name, seed = "read", 1
		}
		t.Run(name, func(t *testing.T) {
			inner := NewMemDisk(b)
			for tk := 0; tk < n; tk++ {
				src := make([]Word, b)
				fillWords(src, 1, tk)
				if err := inner.WriteTrack(tk, src); err != nil {
					t.Fatal(err)
				}
			}
			disk := &poisonDisk{inner: inner, poison: poison, gate: make(chan struct{})}
			arr, err := NewDiskArray([]Disk{disk})
			if err != nil {
				t.Fatal(err)
			}
			defer arr.Close()
			bufs := make([][]Word, n)
			pend := make([]*Pending, n)
			for tk := range pend {
				bufs[tk] = make([]Word, b)
				reqs, one := []BlockReq{{Disk: 0, Track: tk}}, [][]Word{bufs[tk]}
				if read {
					pend[tk], err = arr.BeginReadBlocks(reqs, one)
				} else {
					fillWords(bufs[tk], seed, tk)
					pend[tk], err = arr.BeginWriteBlocks(reqs, one)
				}
				if err != nil {
					t.Fatalf("begin track %d: %v", tk, err)
				}
			}
			close(disk.gate)
			for tk, p := range pend {
				err := p.Wait()
				if tk == poison {
					if !errors.Is(err, ErrInjected) {
						t.Errorf("track %d (poisoned): err = %v, want ErrInjected", tk, err)
					}
					continue
				}
				if err != nil {
					t.Errorf("track %d: err = %v, want nil", tk, err)
					continue
				}
				got := bufs[tk]
				if !read {
					got = make([]Word, b)
					if err := inner.ReadTrack(tk, got); err != nil {
						t.Fatal(err)
					}
				}
				want := make([]Word, b)
				fillWords(want, seed, tk)
				if !slices.Equal(got, want) {
					t.Errorf("track %d holds %v, want %v", tk, got, want)
				}
			}
			if len(disk.hits) == 0 {
				t.Fatal("no batch of two or more tracks held the poisoned track: nothing was coalesced")
			}
			t.Logf("batches that held track %d: %v", poison, disk.hits)
		})
	}
}

// TestDiskArrayBatchEquivalence drives the split-phase path hard enough
// that the workers actually coalesce, against file disks and an in-memory
// reference array, and compares both the final disk contents and the PDM
// accounting. Batching must be invisible to both.
func TestDiskArrayBatchEquivalence(t *testing.T) {
	const (
		d, b     = 2, 16
		tracks   = 48
		inflight = 24
	)
	run := func(t *testing.T, mk func(i int) Disk) IOStats {
		t.Helper()
		disks := make([]Disk, d)
		for i := range disks {
			disks[i] = mk(i)
		}
		arr, err := NewDiskArray(disks)
		if err != nil {
			t.Fatal(err)
		}
		defer arr.Close()
		// Phase 1: many overlapping single-block writes so the per-disk
		// queues hold whole runs for the batching workers to coalesce.
		pend := make([]*Pending, 0, d*tracks)
		bufs := make([][][]Word, d)
		for di := 0; di < d; di++ {
			bufs[di] = make([][]Word, tracks)
			for tk := 0; tk < tracks; tk++ {
				buf := make([]Word, b)
				fillWords(buf, di, tk)
				bufs[di][tk] = buf
				p, err := arr.BeginWriteBlocks(
					[]BlockReq{{Disk: di, Track: tk}}, [][]Word{buf})
				if err != nil {
					t.Fatalf("begin write d%d t%d: %v", di, tk, err)
				}
				pend = append(pend, p)
				if len(pend) >= inflight {
					if err := pend[0].Wait(); err != nil {
						t.Fatalf("write: %v", err)
					}
					pend = pend[1:]
				}
			}
		}
		for _, p := range pend {
			if err := p.Wait(); err != nil {
				t.Fatalf("write drain: %v", err)
			}
		}
		// Phase 2: overlapping reads of every track, verified against the
		// stamped pattern.
		pend = pend[:0]
		got := make([][][]Word, d)
		for di := 0; di < d; di++ {
			got[di] = make([][]Word, tracks)
			for tk := 0; tk < tracks; tk++ {
				got[di][tk] = make([]Word, b)
				p, err := arr.BeginReadBlocks(
					[]BlockReq{{Disk: di, Track: tk}}, [][]Word{got[di][tk]})
				if err != nil {
					t.Fatalf("begin read d%d t%d: %v", di, tk, err)
				}
				pend = append(pend, p)
			}
		}
		for _, p := range pend {
			if err := p.Wait(); err != nil {
				t.Fatalf("read: %v", err)
			}
		}
		for di := 0; di < d; di++ {
			for tk := 0; tk < tracks; tk++ {
				for j, w := range got[di][tk] {
					if want := bufs[di][tk][j]; w != want {
						t.Fatalf("disk %d track %d word %d = %#x, want %#x", di, tk, j, w, want)
					}
				}
			}
		}
		return arr.Stats()
	}

	memStats := run(t, func(int) Disk { return NewMemDisk(b) })
	t.Run("file", func(t *testing.T) {
		fileStats := run(t, func(i int) Disk { return newTestFileDisk(t, b, false) })
		if fileStats != memStats {
			t.Errorf("file stats %v, mem stats %v", fileStats, memStats)
		}
	})
	t.Run("file-direct", func(t *testing.T) {
		if !DirectIOSupported(t.TempDir(), 64) {
			t.Skip("filesystem does not support O_DIRECT")
		}
		// b=16 is not 512-byte aligned, so these disks negotiate down to
		// buffered; the point is that a DirectIO request is still safe here.
		fileStats := run(t, func(i int) Disk { return newTestFileDisk(t, b, true) })
		if fileStats != memStats {
			t.Errorf("file-direct stats %v, mem stats %v", fileStats, memStats)
		}
	})
}

// TestFileDiskPooledBufferConcurrency hammers concurrent transfers on
// disjoint track ranges so -race can see the pooled-scratch and zero-copy
// paths race-free. Direct disks take the pooled path on every transfer;
// buffered little-endian disks take the zero-copy path.
func TestFileDiskPooledBufferConcurrency(t *testing.T) {
	const (
		b       = 64
		workers = 8
		perG    = 12
	)
	for _, direct := range []bool{false, true} {
		name := "buffered"
		if direct {
			name = "direct-requested"
		}
		t.Run(name, func(t *testing.T) {
			d := newTestFileDisk(t, b, direct)
			var wg sync.WaitGroup
			errs := make([]error, workers)
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					base := g * perG
					buf := make([]Word, b)
					tracks := make([]int, perG)
					bufs := make([][]Word, perG)
					for i := range tracks {
						tracks[i] = base + i
						bufs[i] = make([]Word, b)
						fillWords(bufs[i], g, base+i)
					}
					if err := d.WriteTracks(tracks, bufs); err != nil {
						errs[g] = err
						return
					}
					for i := 0; i < perG; i++ {
						if err := d.ReadTrack(base+i, buf); err != nil {
							errs[g] = err
							return
						}
						if buf[1] != bufs[i][1] {
							errs[g] = errors.New("read back wrong words")
							return
						}
					}
					if err := d.ReadTracks(tracks, bufs); err != nil {
						errs[g] = err
					}
				}(g)
			}
			wg.Wait()
			for g, err := range errs {
				if err != nil {
					t.Errorf("worker %d: %v", g, err)
				}
			}
		})
	}
}

// TestFileDiskCloseReportsTrimError pins the satellite fix: a Truncate
// failure while trimming the preallocated tail must surface from Close
// instead of being silently replaced by the close result.
func TestFileDiskCloseReportsTrimError(t *testing.T) {
	d := newTestFileDisk(t, 8, false)
	if err := d.WriteTrack(0, make([]Word, 8)); err != nil {
		t.Fatal(err)
	}
	if d.alloc <= d.tracks {
		t.Fatalf("alloc = %d tracks = %d: preallocation left no tail to trim", d.alloc, d.tracks)
	}
	// Yank the descriptor out from under the disk: the trim Truncate and
	// the close both fail, and Close must report it rather than nil.
	if err := d.f.Close(); err != nil {
		t.Fatal(err)
	}
	err := d.Close()
	if err == nil {
		t.Fatal("Close() = nil with a failing tail trim")
	}
	if !errors.Is(err, os.ErrClosed) {
		t.Errorf("Close() = %v, want wrapped os.ErrClosed", err)
	}
	if d.Close() != nil {
		t.Error("second Close not idempotent")
	}
}

// TestDelayDiskBatchDelay checks the coalesced time model: one
// positioning cost per contiguous run plus one transfer per track for a
// model disk, k·delay for a fixed-delay disk.
func TestDelayDiskBatchDelay(t *testing.T) {
	m := TimeModel{Seek: 10 * time.Millisecond, Rotate: 4 * time.Millisecond, TransferBytesPerSec: 8e6}
	const b = 1000 // 8000 bytes → 1ms transfer at 8 MB/s
	md := NewModelDisk(NewMemDisk(b), m)
	pos := m.Seek + m.Rotate/2 // 12ms
	xfer := m.BlockTime(b) - pos
	cases := []struct {
		name   string
		tracks []int
		want   time.Duration
	}{
		{"single", []int{3}, pos + xfer},
		{"contiguous run", []int{3, 4, 5, 6}, pos + 4*xfer},
		{"two runs", []int{0, 1, 7, 8}, 2*pos + 4*xfer},
		{"all gaps", []int{0, 2, 4}, 3*pos + 3*xfer},
		{"empty", nil, 0},
	}
	for _, c := range cases {
		if got := md.batchDelay(c.tracks); got != c.want {
			t.Errorf("model batchDelay(%v) = %v, want %v", c.tracks, got, c.want)
		}
	}
	fd := NewDelayDisk(NewMemDisk(b), 5*time.Millisecond)
	if got := fd.batchDelay([]int{0, 1, 9}); got != 15*time.Millisecond {
		t.Errorf("fixed batchDelay = %v, want 15ms", got)
	}
	// A contiguous batched run must be cheaper than its single-track loop.
	if batched, loop := md.batchDelay([]int{0, 1, 2, 3}), 4*m.BlockTime(b); batched >= loop {
		t.Errorf("batched contiguous run %v not cheaper than loop %v", batched, loop)
	}
}

// TestTimeModelZeroRate checks a model without a transfer rate: it is all
// positioning, so a block costs Seek + Rotate/2 and a model disk charges
// one positioning per run whatever the batch's length — never the
// negative or wrapped-around time of a transfer divided by zero.
func TestTimeModelZeroRate(t *testing.T) {
	m := TimeModel{Seek: time.Millisecond, Rotate: 2 * time.Millisecond}
	const b = 512
	pos := m.Seek + m.Rotate/2
	if got := m.BlockTime(b); got != pos {
		t.Errorf("BlockTime = %v, want %v", got, pos)
	}
	md := NewModelDisk(NewMemDisk(b), m)
	for k := 1; k <= 3; k++ {
		if got := m.BatchTime(b, k); got != pos {
			t.Errorf("BatchTime(b, %d) = %v, want %v", k, got, pos)
		}
		run, gaps := make([]int, k), make([]int, k)
		for i := range k {
			run[i], gaps[i] = i, 2*i
		}
		if got := md.batchDelay(run); got != pos {
			t.Errorf("batchDelay(%v) = %v, want one positioning %v", run, got, pos)
		}
		if got, want := md.batchDelay(gaps), time.Duration(k)*pos; got != want {
			t.Errorf("batchDelay(%v) = %v, want %d positionings %v", gaps, got, k, want)
		}
	}
}

// TestTimeModelBatchTime checks the closed form against BlockTime.
func TestTimeModelBatchTime(t *testing.T) {
	m := DefaultTimeModel()
	const b = 128
	if got := m.BatchTime(b, 1); got != m.BlockTime(b) {
		t.Errorf("BatchTime(b,1) = %v, want BlockTime = %v", got, m.BlockTime(b))
	}
	if got := m.BatchTime(b, 0); got != 0 {
		t.Errorf("BatchTime(b,0) = %v, want 0", got)
	}
	// k blocks batched: fixed cost paid once, so strictly cheaper than k
	// separate blocks, but at least the pure transfer time of k blocks.
	k := 16
	batched := m.BatchTime(b, k)
	if loop := time.Duration(k) * m.BlockTime(b); batched >= loop {
		t.Errorf("BatchTime(b,%d) = %v, not cheaper than %d·BlockTime = %v", k, batched, k, loop)
	}
	transferOnly := time.Duration(k) * (m.BlockTime(b) - m.Seek - m.Rotate/2)
	if batched < transferOnly {
		t.Errorf("BatchTime(b,%d) = %v below pure transfer %v", k, batched, transferOnly)
	}
}

// TestSyscallsOf checks the counter plumbing from disks to arrays.
func TestSyscallsOf(t *testing.T) {
	mem := NewMemArray(2, 8)
	defer mem.Close()
	if n := SyscallsOf(mem); n != 0 {
		t.Errorf("mem array syscalls = %d, want 0", n)
	}
	fd := newTestFileDisk(t, 8, false)
	arr, err := NewDiskArray([]Disk{fd, NewMemDisk(8)})
	if err != nil {
		t.Fatal(err)
	}
	defer arr.Close()
	if err := arr.WriteBlocks([]BlockReq{{Disk: 0, Track: 0}}, [][]Word{make([]Word, 8)}); err != nil {
		t.Fatal(err)
	}
	if n := SyscallsOf(arr); n < 1 {
		t.Errorf("file array syscalls = %d, want >= 1", n)
	}
	if fd.Syscalls() != SyscallsOf(arr) {
		t.Errorf("array total %d != disk counter %d", SyscallsOf(arr), fd.Syscalls())
	}
}
