package layout

import (
	"repro/internal/pdm"
)

// The layout's transfers, split-phase: each begins the parallel I/O
// operations of one transfer with BeginReadBlocks/BeginWriteBlocks and adds
// their Pending handles to a caller-owned pdm.PendingSet, which the caller
// waits when it needs the data or the buffers back. pdm charges an
// operation when it is begun, so a transfer costs the same operations
// whenever its set is waited; a caller that waits after every transfer has
// the synchronous schedule.
//
// Buffer ownership: the request slices come from the Scratch and are
// consumed before Begin returns, so the scratch is immediately reusable —
// but the data buffers are referenced until the set is waited.

// BeginWriteStripedScratch writes bufs as blocks [startBlock,
// startBlock+len(bufs)) of the striped region rooted at baseTrack.
// Consecutive global indices hit distinct disks, so the transfer is
// ⌈len(bufs)/D⌉ fully parallel write cycles (the last may be partial),
// begun back to back with their handles added to pend. bufs must stay
// untouched until pend is waited.
func BeginWriteStripedScratch(arr *pdm.DiskArray, baseTrack, startBlock int, bufs [][]pdm.Word, s *Scratch, pend *pdm.PendingSet) error {
	d := arr.D()
	for off := 0; off < len(bufs); off += d {
		end := off + d
		if end > len(bufs) {
			end = len(bufs)
		}
		reqs, _ := s.grow(end - off)
		for i := range reqs {
			reqs[i] = Striped(startBlock+off+i, d, baseTrack)
		}
		p, err := arr.BeginWriteBlocks(reqs, bufs[off:end])
		if err != nil {
			return err
		}
		pend.Add(p)
	}
	return nil
}

// BeginReadStripedScratch is the read-side analogue of
// BeginWriteStripedScratch: it reads blocks [startBlock,
// startBlock+len(bufs)) of the striped region rooted at baseTrack into
// bufs, in ⌈len(bufs)/D⌉ fully parallel read cycles whose handles it adds
// to pend. bufs hold undefined contents until pend is waited.
func BeginReadStripedScratch(arr *pdm.DiskArray, baseTrack, startBlock int, bufs [][]pdm.Word, s *Scratch, pend *pdm.PendingSet) error {
	d := arr.D()
	for off := 0; off < len(bufs); off += d {
		end := min(off+d, len(bufs))
		reqs, _ := s.grow(end - off)
		for i := range reqs {
			reqs[i] = Striped(startBlock+off+i, d, baseTrack)
		}
		p, err := arr.BeginReadBlocks(reqs, bufs[off:end])
		if err != nil {
			return err
		}
		pend.Add(p)
	}
	return nil
}

// DiscardStriped discards blocks [startBlock, startBlock+n) of the
// striped region rooted at baseTrack (pdm.DiskArray.Discard): no
// transfer and no operation, in cycles of D requests built in s. The
// caller guarantees that no transfer of those blocks is in flight.
func DiscardStriped(arr *pdm.DiskArray, baseTrack, startBlock, n int, s *Scratch) {
	d := arr.D()
	for off := 0; off < n; off += d {
		reqs, _ := s.grow(min(d, n-off))
		for i := range reqs {
			reqs[i] = Striped(startBlock+off+i, d, baseTrack)
		}
		arr.Discard(reqs)
	}
}

// BeginWriteFIFOScratch writes a burst of blocks in the fewest parallel
// I/Os its addresses allow. The paper's DiskWrite procedure serves the
// queue strictly front to back and cuts a write cycle at the first block
// whose disk the cycle already uses; here a burst is issued in per-disk
// rounds (see packed), which costs the same on the whole-slot transfers
// the paper makes and no more on anything else. Each round is begun as
// one parallel I/O and its handle added to pend; it returns the number of
// operations begun.
func BeginWriteFIFOScratch(arr *pdm.DiskArray, reqs []pdm.BlockReq, bufs [][]pdm.Word, s *Scratch, pend *pdm.PendingSet) (int, error) {
	return packed(arr, reqs, bufs, false, s, pend)
}

// BeginReadFIFOScratch is the read-side analogue of
// BeginWriteFIFOScratch.
func BeginReadFIFOScratch(arr *pdm.DiskArray, reqs []pdm.BlockReq, bufs [][]pdm.Word, s *Scratch, pend *pdm.PendingSet) (int, error) {
	return packed(arr, reqs, bufs, true, s, pend)
}
