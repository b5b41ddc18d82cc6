package pdm

import (
	"encoding/binary"
	"fmt"
)

// MaxBatchTracks bounds how many track transfers one coalesced batch may
// carry: the disk-array workers stop collecting at this size, and
// implementations may size their transfer scratch for it. 64 keeps the
// iovec lists far below IOV_MAX (1024) and a pooled run buffer below
// 64·8·B bytes.
const MaxBatchTracks = 64

// BatchDisk is the optional capability of a Disk that can move several
// tracks in one operation. The DiskArray workers serve every transfer of
// such a disk through it: a queue of conflict-free single-track transfers
// coalesces into one call — one vectored syscall per contiguous run
// (FileDisk), one lock acquisition (MemDisk) — and a lone transfer is a
// batch of one track. MemDisk, FileDisk and DelayDisk implement ReadTrack
// and WriteTrack as exactly that one-track batch.
//
// Contract, shared by both methods:
//
//   - len(tracks) == len(bufs) ≤ MaxBatchTracks, every buffer exactly B
//     words (ErrBadBlockSize), every track non-negative
//     (ErrTrackOutOfRange);
//   - tracks strictly ascending (sorted, no duplicates) — callers sort,
//     implementations may then coalesce contiguous runs into single
//     transfers;
//   - the result must be indistinguishable from the equivalent
//     ReadTrack/WriteTrack loop, except for wall-clock time and syscall
//     count. In particular WriteTracks allocates tracks exactly as
//     WriteTrack does.
//
// On error the batch may be partially applied; the disk-array workers
// re-issue a failed batch of several tracks one track at a time to
// attribute per-transfer errors, so implementations only need
// all-or-nothing error reporting. Transfers are not atomic across tracks
// — the caller guarantees no concurrent access to the addressed tracks,
// exactly as for Disk.
type BatchDisk interface {
	Disk
	// ReadTracks reads tracks[i] into bufs[i] for all i.
	ReadTracks(tracks []int, bufs [][]Word) error
	// WriteTracks stores bufs[i] as tracks[i] for all i, allocating as
	// needed.
	WriteTracks(tracks []int, bufs [][]Word) error
}

// SyscallCounter is the optional capability of a Disk that issues real
// operating-system I/O and counts its syscalls — the denominator of the
// batching win. FileDisk implements it; wrappers forward it.
type SyscallCounter interface {
	// Syscalls returns the cumulative number of I/O syscalls issued.
	Syscalls() int64
}

// SyscallsOf sums the syscall counters of the array's disks that have
// one. Zero for memory-backed arrays; not part of the determinism
// contract (retries on short transfers vary with the kernel).
func SyscallsOf(a *DiskArray) int64 {
	var n int64
	for _, d := range a.disks {
		if sc, ok := d.(SyscallCounter); ok {
			n += sc.Syscalls()
		}
	}
	return n
}

// validateBatch checks the BatchDisk call contract: matching lengths,
// per-buffer block size b (ErrBadBlockSize), non-negative track numbers
// (ErrTrackOutOfRange), strictly ascending tracks, and the MaxBatchTracks
// bound. The sentinels are the per-track calls' errors, since those are
// one-track batches.
func validateBatch(b int, tracks []int, bufs [][]Word) error {
	if len(tracks) != len(bufs) {
		return fmt.Errorf("pdm: batch of %d tracks with %d buffers", len(tracks), len(bufs))
	}
	if len(tracks) > MaxBatchTracks {
		return fmt.Errorf("pdm: batch of %d tracks exceeds MaxBatchTracks = %d", len(tracks), MaxBatchTracks)
	}
	for i, buf := range bufs {
		if len(buf) != b {
			return ErrBadBlockSize
		}
		if tracks[i] < 0 {
			return ErrTrackOutOfRange
		}
		if i > 0 && tracks[i] <= tracks[i-1] {
			return fmt.Errorf("pdm: batch tracks not strictly ascending at index %d (%d after %d)",
				i, tracks[i], tracks[i-1])
		}
	}
	return nil
}

// scatterWords decodes the little-endian bytes of src into dst. On
// zero-copy targets this is a single memmove; elsewhere an explicit
// conversion.
func scatterWords(dst []Word, src []byte) {
	if zeroCopyWords {
		copy(wordsAsBytes(dst), src)
		return
	}
	// Big-endian targets convert word by word.
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(src[8*i:])
	}
}

// gatherWords encodes src into dst as little-endian bytes — the inverse
// of scatterWords.
func gatherWords(dst []byte, src []Word) {
	if zeroCopyWords {
		copy(dst, wordsAsBytes(src))
		return
	}
	for i, w := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], w)
	}
}
