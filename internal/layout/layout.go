// Package layout implements the deterministic disk layouts of the paper's
// appendix: the consecutive format used for virtual-processor contexts and
// inbox reads, the staggered message-matrix format of Figure 2, and the
// DiskWrite scheduler that packs a burst's blocks into parallel I/O
// operations by disk.
//
// Terminology (paper, Section 6.9):
//
//   - consecutive format: the q-th block of a run is stored on disk
//     (d+q) mod D at track T0 + (d+q)/D, where T0 is the run's first track
//     and d its disk offset. Equivalently, a run is a contiguous range of
//     "global block indices" striped round-robin across the D disks.
//   - staggered format: messages to consecutively numbered processors have
//     their first blocks on consecutive disks, so that one parallel I/O can
//     write message blocks for consecutive destinations. The paper offsets
//     them by b' = blocks-per-message, which puts them all on one disk when
//     D divides b'; here the slot pitch is b' rounded up to ≡ 1 (mod D)
//     (see pitch), so the offset is one disk for every (b', D) and holds
//     for the live prefixes that are all the engine transfers.
//
// The package is part of the determinism contract (DESIGN.md §11):
// identical inputs must yield bit-identical I/O schedules and op counts.
package layout

import (
	"fmt"

	"repro/internal/pdm"
)

// Striped maps a global block index g to its (disk, track) address under
// round-robin striping with the given base track: disk g mod D, track
// base + g/D. This is the paper's consecutive format with the run's disk
// offset folded into g.
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

// WriteFIFO writes a burst of blocks in the fewest parallel I/Os its
// addresses allow. The paper's DiskWrite procedure serves the queue
// strictly front to back and cuts a write cycle at the first block whose
// disk the cycle already uses; here a burst is issued in per-disk rounds
// (see packed), which costs the same on the whole-slot transfers the paper
// makes and no more on anything else. It returns the number of parallel
// operations issued.
func WriteFIFO(arr *pdm.DiskArray, reqs []pdm.BlockReq, bufs [][]pdm.Word) (int, error) {
	var s Scratch
	return packed(arr, reqs, bufs, false, &s, nil)
}

// ReadFIFO is the read-side analogue of WriteFIFO.
func ReadFIFO(arr *pdm.DiskArray, reqs []pdm.BlockReq, bufs [][]pdm.Word) (int, error) {
	var s Scratch
	return packed(arr, reqs, bufs, true, &s, nil)
}

// packed issues a burst in per-disk rounds: operation k carries the k-th
// request of every disk that has one, each disk's requests in the order
// the burst lists them. A disk serves one block per operation, so no
// schedule takes fewer than the longest per-disk queue, and this one takes
// exactly that many: max_d(count_d). Transfers to one disk keep the
// burst's order, which is all a write→read dependency needs (pdm's
// per-disk queues are FIFO). With a pending set the operations are begun
// and their handles added to it; with none each is waited before the next.
func packed(arr *pdm.DiskArray, reqs []pdm.BlockReq, bufs [][]pdm.Word, read bool, s *Scratch, pend *pdm.PendingSet) (int, error) {
	if len(reqs) != len(bufs) {
		return 0, fmt.Errorf("layout: %d requests but %d buffers", len(reqs), len(bufs))
	}
	d := arr.D()
	queue, order, ops := s.byDisk(reqs, d)
	opReqs, opBufs := s.grow(d)
	for k := 0; k < ops; k++ {
		n := 0
		for disk := 0; disk < d; disk++ {
			if at := queue[disk] + k; at < queue[disk+1] {
				opReqs[n], opBufs[n] = reqs[order[at]], bufs[order[at]]
				n++
			}
		}
		var p *pdm.Pending
		var err error
		if read {
			p, err = arr.BeginReadBlocks(opReqs[:n], opBufs[:n])
		} else {
			p, err = arr.BeginWriteBlocks(opReqs[:n], opBufs[:n])
		}
		if err != nil {
			return k, err
		}
		if pend != nil {
			pend.Add(p)
		} else if err := p.Wait(); err != nil {
			return k, err
		}
	}
	return ops, nil
}
