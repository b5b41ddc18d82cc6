package pdm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// fileDiskAllocChunk is the granularity, in tracks, of FileDisk's
// Truncate-based preallocation: the backing file grows in chunks (at
// least doubling) instead of extending by one track per append, so
// steady-state writes land inside already-allocated space and pay no
// file-size metadata update.
const fileDiskAllocChunk = 256

// FileDiskOptions configures NewFileDiskOpts.
type FileDiskOptions struct {
	// DirectIO requests O_DIRECT: transfers bypass the kernel page cache
	// and hit the device queue, which is what makes FileDisk behave like
	// the PDM's independent disks instead of a memcpy front-end. Direct
	// I/O needs platform support (Linux), filesystem support (not tmpfs)
	// and 8·B ≡ 0 (mod 512); when any of those fail the disk silently
	// falls back to buffered I/O — FileDisk.DirectIO reports the outcome,
	// and DirectIOSupported probes it without creating a disk.
	DirectIO bool
}

// FileDisk is a Disk backed by a single operating-system file. Track t
// occupies bytes [t·8B, (t+1)·8B) in little-endian word encoding. It
// exists so the prototype runs against real storage, as the paper's
// Pentium-cluster prototype did with multiple physical disks per node;
// the simulation and all PDM accounting behave identically on MemDisk.
//
// Concurrency: transfers no longer serialise on a shared conversion
// buffer — on little-endian targets the word buffers' own bytes are the
// transfer buffers (zero-copy, see zerocopy_le.go), and the conversion
// paths draw per-call scratch from a pool of page-aligned buffers. The
// only lock is mu over the track/allocation metadata, held across the
// preallocating Truncate so file growth is monotonic under concurrent
// writers. Concurrent transfers on distinct tracks are safe, per the
// Disk contract.
//
// FileDisk implements BatchDisk, and ReadTrack/WriteTrack are one-track
// batches: a sorted batch is split into maximal contiguous track runs,
// and each run moves in one syscall (transferRun) — a pread/pwrite for a
// run of one track, a vectored preadv/pwritev straight into the block
// buffers on Linux little-endian targets, a single pread/pwrite through
// pooled scratch otherwise.
type FileDisk struct {
	f          *os.File
	b          int // words per track
	trackBytes int // 8·b
	direct     bool

	mu     sync.Mutex // metadata: tracks, alloc, closed
	tracks int
	alloc  int // tracks covered by Truncate preallocation

	pool     sync.Pool    // *[]byte scratch, aligned, MaxBatchTracks·trackBytes
	syscalls atomic.Int64 // pread/pwrite/preadv/pwritev/fsync issued
	closed   atomic.Bool
}

// NewFileDisk creates (truncating) a buffered file-backed disk at path
// with block size b words. Shorthand for NewFileDiskOpts with zero
// options.
func NewFileDisk(path string, b int) (*FileDisk, error) {
	return NewFileDiskOpts(path, b, FileDiskOptions{})
}

// NewFileDiskOpts creates (truncating) a file-backed disk at path with
// block size b words and the given options. A direct-I/O request that
// the platform, filesystem or block geometry cannot honour degrades to
// buffered I/O rather than failing — CI and tmpfs keep working — and
// DirectIO() reports what was actually negotiated.
//
// A regular file already at path is unlinked and a new one created,
// rather than truncated in place: ext4 (auto_da_alloc) reads truncate-
// then-rewrite as the replace-a-file idiom and, when such a file is
// closed, starts writing all of its dirty pages to the device, so a run
// over the previous run's disk files would begin by waiting on the device
// for data nobody will read — a wait that is neither the run's nor
// repeatable. Unlinking a file whose pages were never written back costs
// no device I/O at all. O_TRUNC stays for what the unlink leaves (not a
// regular file, no permission).
func NewFileDiskOpts(path string, b int, opts FileDiskOptions) (*FileDisk, error) {
	if b < 1 {
		return nil, fmt.Errorf("pdm: NewFileDisk with block size %d < 1", b)
	}
	if fi, err := os.Lstat(path); err == nil && fi.Mode().IsRegular() {
		_ = os.Remove(path) // on failure O_TRUNC below does the job
	}
	const openFlags = os.O_RDWR | os.O_CREATE | os.O_TRUNC
	trackBytes := 8 * b
	var f *os.File
	var err error
	direct := false
	if opts.DirectIO && haveDirectIO && trackBytes%directIOAlign == 0 {
		if f, err = os.OpenFile(path, openFlags|directIOFlag, 0o644); err == nil {
			// Some filesystems accept the flag but fail at transfer time;
			// probe with one aligned track and trim it away.
			if probeDirect(f, trackBytes) {
				direct = true
			} else {
				_ = f.Close()
				f = nil
			}
		} else {
			f = nil // e.g. tmpfs: EINVAL at open; fall back to buffered
		}
	}
	if f == nil {
		if f, err = os.OpenFile(path, openFlags, 0o644); err != nil {
			return nil, fmt.Errorf("pdm: create file disk: %w", err)
		}
	}
	d := &FileDisk{f: f, b: b, trackBytes: trackBytes, direct: direct}
	d.pool.New = func() any {
		buf := alignedBytes(MaxBatchTracks * trackBytes)
		return &buf
	}
	return d, nil
}

// probeDirect verifies that a file opened with O_DIRECT actually accepts
// aligned transfers: one zeroed track is written at offset 0 and trimmed
// away again. The file was just created with O_TRUNC, so the probe
// leaves it exactly as found.
func probeDirect(f *os.File, trackBytes int) bool {
	buf := alignedBytes(trackBytes)
	if _, err := f.WriteAt(buf, 0); err != nil {
		return false
	}
	return f.Truncate(0) == nil
}

// DirectIOSupported reports whether a file disk created in dir with
// block size b would get direct I/O — the capability probe the CLIs and
// tests use before promising O_DIRECT numbers. It creates and removes a
// probe file.
func DirectIOSupported(dir string, b int) bool {
	if !haveDirectIO || b < 1 || (8*b)%directIOAlign != 0 {
		return false
	}
	path := filepath.Join(dir, ".emcgm-directio-probe")
	d, err := NewFileDiskOpts(path, b, FileDiskOptions{DirectIO: true})
	if err != nil {
		return false
	}
	ok := d.direct
	_ = d.Close()
	_ = os.Remove(path)
	return ok
}

// BlockSize returns the words per track.
func (d *FileDisk) BlockSize() int { return d.b }

// DirectIO reports whether the disk negotiated O_DIRECT at creation.
func (d *FileDisk) DirectIO() bool { return d.direct }

// Syscalls returns the cumulative number of I/O syscalls issued
// (pread/pwrite/preadv/pwritev/fsync; metadata Truncates excluded) —
// the denominator the batched path shrinks. Not part of the determinism
// contract: short transfers retry.
func (d *FileDisk) Syscalls() int64 { return d.syscalls.Load() }

// Tracks returns the number of allocated tracks.
func (d *FileDisk) Tracks() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tracks
}

// checkRead bounds-checks a read up to track hi against the written
// high-water mark and the closed flag.
func (d *FileDisk) checkRead(hi int) error {
	if d.closed.Load() {
		return ErrClosed
	}
	d.mu.Lock()
	tracks := d.tracks
	d.mu.Unlock()
	if hi >= tracks {
		return ErrTrackOutOfRange
	}
	return nil
}

// getBuf borrows page-aligned transfer scratch of the full batch size;
// callers slice what they need.
func (d *FileDisk) getBuf() *[]byte { return d.pool.Get().(*[]byte) }

func (d *FileDisk) putBuf(buf *[]byte) { d.pool.Put(buf) }

// reserve extends the preallocation to cover track t. Growth is
// monotonic and performed under mu, so concurrent writers can never
// shrink the file under each other.
func (d *FileDisk) reserve(t int) error {
	if d.closed.Load() {
		return ErrClosed
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if t < d.alloc {
		return nil
	}
	// Growth at least doubles, so the Truncate (held under mu to stay
	// monotonic) is amortised over fileDiskAllocChunk tracks.
	grow := d.alloc * 2
	if t >= grow {
		grow = t + 1
	}
	grow = (grow + fileDiskAllocChunk - 1) / fileDiskAllocChunk * fileDiskAllocChunk
	if err := d.f.Truncate(int64(grow) * int64(d.trackBytes)); err != nil {
		return fmt.Errorf("pdm: file disk preallocate %d tracks: %w", grow, err)
	}
	d.alloc = grow
	return nil
}

// commit raises the written high-water mark to cover track t.
func (d *FileDisk) commit(t int) {
	d.mu.Lock()
	if t >= d.tracks {
		d.tracks = t + 1
	}
	d.mu.Unlock()
}

// ReadTrack copies track t into dst: a one-track ReadTracks.
func (d *FileDisk) ReadTrack(t int, dst []Word) error {
	tracks, bufs := [1]int{t}, [1][]Word{dst}
	return d.ReadTracks(tracks[:], bufs[:])
}

// WriteTrack stores src as track t: a one-track WriteTracks.
func (d *FileDisk) WriteTrack(t int, src []Word) error {
	tracks, bufs := [1]int{t}, [1][]Word{src}
	return d.WriteTracks(tracks[:], bufs[:])
}

// ReadTracks implements BatchDisk: the sorted batch is split into
// maximal contiguous track runs and each run transfers in one syscall.
func (d *FileDisk) ReadTracks(tracks []int, bufs [][]Word) error {
	return d.transferBatch(tracks, bufs, false)
}

// WriteTracks implements BatchDisk: preallocation covers the whole batch
// up front, then each contiguous run gathers into one syscall.
func (d *FileDisk) WriteTracks(tracks []int, bufs [][]Word) error {
	return d.transferBatch(tracks, bufs, true)
}

// transferBatch checks a batch and hands each maximal contiguous run of
// it to transferRun. Tracks are ascending, so the last one bounds the
// batch: a read must not pass the written high-water mark, a write
// preallocates up to it first and raises the mark once every run landed.
func (d *FileDisk) transferBatch(tracks []int, bufs [][]Word, write bool) error {
	if err := validateBatch(d.b, tracks, bufs); err != nil {
		return err
	}
	if len(tracks) == 0 {
		return nil
	}
	last := tracks[len(tracks)-1]
	var err error
	if write {
		err = d.reserve(last)
	} else {
		err = d.checkRead(last)
	}
	if err != nil {
		return err
	}
	for s := 0; s < len(tracks); {
		e := s + 1
		for e < len(tracks) && tracks[e] == tracks[e-1]+1 {
			e++
		}
		if err := d.transferRun(tracks[s], bufs[s:e], write); err != nil {
			return err
		}
		s = e
	}
	if write {
		d.commit(last)
	}
	return nil
}

// transferRun moves the contiguous track run [t0, t0+len(bufs)) in one
// syscall: vectored scatter/gather directly against the block buffers on
// zero-copy targets, a pooled-buffer pread/pwrite with explicit
// conversion otherwise (and always under O_DIRECT, whose alignment the
// pooled buffers guarantee but arbitrary word slices do not).
func (d *FileDisk) transferRun(t0 int, bufs [][]Word, write bool) error {
	off := int64(t0) * int64(d.trackBytes)
	verb := "read"
	if write {
		verb = "write"
	}
	if zeroCopyWords && !d.direct {
		if len(bufs) == 1 {
			// One track: plain positioned I/O, no iovec setup.
			d.syscalls.Add(1)
			var err error
			if write {
				_, err = d.f.WriteAt(wordsAsBytes(bufs[0]), off)
			} else {
				_, err = d.f.ReadAt(wordsAsBytes(bufs[0]), off)
			}
			if err != nil {
				return fmt.Errorf("pdm: file disk %s run at track %d: %w", verb, t0, err)
			}
			return nil
		}
		if haveVectored {
			n, err := vectorTracks(d.f, bufs, off, write)
			d.syscalls.Add(n)
			if err != nil {
				return fmt.Errorf("pdm: file disk vectored %s at track %d (%d tracks): %w",
					verb, t0, len(bufs), err)
			}
			return nil
		}
	}
	bp := d.getBuf()
	buf := (*bp)[:len(bufs)*d.trackBytes]
	var err error
	d.syscalls.Add(1)
	if write {
		for i, b := range bufs {
			gatherWords(buf[i*d.trackBytes:(i+1)*d.trackBytes], b)
		}
		_, err = d.f.WriteAt(buf, off)
	} else {
		_, err = d.f.ReadAt(buf, off)
		if err == nil {
			for i, b := range bufs {
				scatterWords(b, buf[i*d.trackBytes:(i+1)*d.trackBytes])
			}
		}
	}
	d.putBuf(bp)
	if err != nil {
		return fmt.Errorf("pdm: file disk %s run at track %d (%d tracks): %w", verb, t0, len(bufs), err)
	}
	return nil
}

// Sync flushes buffered writes to stable storage, so benchmarks can
// measure durable-write cost rather than page-cache absorption.
func (d *FileDisk) Sync() error {
	if d.closed.Load() {
		return ErrClosed
	}
	d.syscalls.Add(1)
	if err := d.f.Sync(); err != nil {
		return fmt.Errorf("pdm: file disk sync: %w", err)
	}
	return nil
}

// Close trims the preallocated tail back to the written tracks and
// closes the backing file. A failed trim no longer disappears: it is
// joined with the close result, so callers see both.
func (d *FileDisk) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	d.mu.Lock()
	tracks, alloc := d.tracks, d.alloc
	d.mu.Unlock()
	var trimErr error
	if alloc > tracks {
		if err := d.f.Truncate(int64(tracks) * int64(d.trackBytes)); err != nil {
			trimErr = fmt.Errorf("pdm: file disk trim preallocated tail: %w", err)
		}
	}
	return errors.Join(trimErr, d.f.Close())
}

var (
	_ Disk           = (*FileDisk)(nil)
	_ BatchDisk      = (*FileDisk)(nil)
	_ SyscallCounter = (*FileDisk)(nil)
)
