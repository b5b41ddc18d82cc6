// Package pdm implements the Parallel Disk Model (PDM) substrate used by
// the EM-CGM simulation.
//
// The PDM (Vitter & Shriver) models a two-level memory hierarchy: an
// internal memory of M items and D disk drives, each transferring blocks
// of B items. A single parallel I/O operation moves up to one block (one
// "track") per disk — at most D·B items — between the disks and internal
// memory, and the cost measure of an algorithm is the number of such
// parallel I/O operations.
//
// This package provides:
//
//   - Disk: a track-addressed block store (memory- or file-backed),
//   - DiskArray: D disks driven concurrently, one goroutine per disk,
//     which counts parallel I/O operations exactly as the PDM does,
//   - IOStats: the accounting consumed by the benchmark harness,
//   - TimeModel: a seek+transfer disk time model used to reproduce the
//     block-size/throughput measurements of the paper's Figure 8.
//
// All data is stored as 64-bit words. Application items are encoded into a
// fixed number of words per item (package wordcodec) so that PDM block
// arithmetic — B items per track — stays exact.
//
// The package is part of the determinism contract (DESIGN.md §11):
// identical inputs must yield bit-identical I/O schedules and op counts.
package pdm

import (
	"errors"
	"fmt"
)

// Word is the unit of storage on simulated disks. Application items are
// encoded as a fixed number of words each.
type Word = uint64

// Common errors returned by disks and disk arrays.
var (
	// ErrTrackOutOfRange is returned when reading a track that was never
	// written or was discarded since (or a negative track number).
	ErrTrackOutOfRange = errors.New("pdm: track out of range")
	// ErrBadBlockSize is returned when a buffer's length does not equal
	// the disk's block size.
	ErrBadBlockSize = errors.New("pdm: buffer length != block size B")
	// ErrDiskConflict is returned when a single parallel I/O operation
	// addresses the same disk twice, which the PDM forbids.
	ErrDiskConflict = errors.New("pdm: two blocks address the same disk in one parallel I/O")
	// ErrClosed is returned by operations on a closed disk.
	ErrClosed = errors.New("pdm: disk is closed")
)

// BlockReq addresses one block within a parallel I/O operation: track
// Track of disk Disk. The PDM allows any track on each disk (direct
// random access) but at most one track per disk per operation.
type BlockReq struct {
	Disk  int // disk index in 0..D-1
	Track int // track number, >= 0
}

// String renders the request as d<disk>/t<track>.
func (r BlockReq) String() string {
	return fmt.Sprintf("d%d/t%d", r.Disk, r.Track)
}

// BlocksFor returns the number of B-sized blocks needed to hold n items.
func BlocksFor(n, b int) int {
	if n <= 0 {
		return 0
	}
	return (n + b - 1) / b
}
