// Package layout implements the deterministic disk layouts of the paper's
// appendix: the consecutive format used for virtual-processor contexts and
// inbox reads, the staggered message-matrix format of Figure 2, and the
// FIFO DiskWrite scheduler that packs conflict-free blocks into parallel
// I/O operations.
//
// Terminology (paper, Section 6.9):
//
//   - consecutive format: the q-th block of a run is stored on disk
//     (d+q) mod D at track T0 + (d+q)/D, where T0 is the run's first track
//     and d its disk offset. Equivalently, a run is a contiguous range of
//     "global block indices" striped round-robin across the D disks.
//   - staggered format: messages to consecutively numbered processors have
//     their first blocks offset by b' = blocks-per-message on the disks,
//     so that one parallel I/O can write message blocks for consecutive
//     destinations.
//
// The package is part of the determinism contract checked by the
// detorder analyzer (see DESIGN.md §11): identical inputs must yield
// bit-identical I/O schedules and op counts.
//
// emcgm:deterministic
package layout

import (
	"fmt"

	"repro/internal/pdm"
)

// Striped maps a global block index g to its (disk, track) address under
// round-robin striping with the given base track: disk g mod D, track
// base + g/D. This is the paper's consecutive format with the run's disk
// offset folded into g.
// emcgm:hotpath
func Striped(g, d, base int) pdm.BlockReq {
	if g < 0 {
		panic("layout: negative block index")
	}
	return pdm.BlockReq{Disk: g % d, Track: base + g/d}
}

// Pad returns ws extended with zero words to a multiple of b.
func Pad(ws []pdm.Word, b int) []pdm.Word {
	r := len(ws) % b
	if r == 0 {
		return ws
	}
	return append(ws, make([]pdm.Word, b-r)...)
}

// SplitBlocks cuts ws (whose length must be a multiple of b) into b-word
// block views sharing ws's storage.
func SplitBlocks(ws []pdm.Word, b int) [][]pdm.Word {
	return SplitBlocksInto(make([][]pdm.Word, 0, len(ws)/b), ws, b)
}

func badSplit(n, b int) string {
	return fmt.Sprintf("layout: %d words is not a multiple of block size %d", n, b)
}

// WriteStriped writes bufs as blocks [startBlock, startBlock+len(bufs))
// of the striped region rooted at baseTrack. Consecutive global indices
// hit distinct disks, so the transfer proceeds in ⌈len(bufs)/D⌉ fully
// parallel operations (the last may be partial).
func WriteStriped(arr *pdm.DiskArray, baseTrack, startBlock int, bufs [][]pdm.Word) error {
	var s Scratch
	return WriteStripedScratch(arr, baseTrack, startBlock, bufs, &s)
}

// ReadStriped reads n blocks starting at global index startBlock of the
// striped region rooted at baseTrack, returning the concatenated words
// (n·B of them). It issues ⌈n/D⌉ fully parallel operations.
func ReadStriped(arr *pdm.DiskArray, baseTrack, startBlock, n int) ([]pdm.Word, error) {
	var s Scratch
	out := make([]pdm.Word, n*arr.B())
	if err := ReadStripedScratch(arr, baseTrack, startBlock, out, &s); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteFIFO implements the paper's DiskWrite procedure: blocks are
// serviced strictly in FIFO order; each write cycle takes blocks from the
// front of the queue until one conflicts (same disk) with an earlier block
// of the cycle, then issues the cycle as a single parallel I/O.
// It returns the number of parallel operations issued.
func WriteFIFO(arr *pdm.DiskArray, reqs []pdm.BlockReq, bufs [][]pdm.Word) (int, error) {
	var s Scratch
	return fifo(arr, reqs, bufs, false, &s)
}

// ReadFIFO is the read-side analogue of WriteFIFO: it packs the FIFO
// request sequence into maximal conflict-free parallel reads.
func ReadFIFO(arr *pdm.DiskArray, reqs []pdm.BlockReq, bufs [][]pdm.Word) (int, error) {
	var s Scratch
	return fifo(arr, reqs, bufs, true, &s)
}

// emcgm:hotpath
func fifo(arr *pdm.DiskArray, reqs []pdm.BlockReq, bufs [][]pdm.Word, read bool, s *Scratch) (int, error) {
	if len(reqs) != len(bufs) {
		return 0, fmt.Errorf("layout: %d requests but %d buffers", len(reqs), len(bufs))
	}
	used := s.diskSet(arr.D())
	ops := 0
	i := 0
	for i < len(reqs) {
		for j := range used {
			used[j] = false
		}
		start := i
		for i < len(reqs) && !used[reqs[i].Disk] {
			used[reqs[i].Disk] = true
			i++
		}
		var err error
		if read {
			err = arr.ReadBlocks(reqs[start:i], bufs[start:i])
		} else {
			err = arr.WriteBlocks(reqs[start:i], bufs[start:i])
		}
		if err != nil {
			return ops, err
		}
		ops++
	}
	return ops, nil
}
