package layout

import (
	"repro/internal/pdm"
)

// Split-phase layout entry points: each mirrors its synchronous
// counterpart cycle for cycle — the same packing into parallel I/O
// operations, issued in the same order — but begins the operations with
// BeginReadBlocks/BeginWriteBlocks and collects the Pending handles into
// a caller-owned pdm.PendingSet instead of waiting each one. Because the
// cycle structure is identical and pdm charges accounting at begin time,
// a transfer begun here costs exactly the operations the synchronous form
// costs; only completion is deferred to PendingSet.Wait.
//
// Buffer ownership: the request slices come from the Scratch and are
// consumed before Begin returns, so the scratch is immediately reusable —
// but the data buffers are referenced until the set is waited.

// BeginWriteStripedScratch is WriteStripedScratch in split-phase form:
// the ⌈len(bufs)/D⌉ striped write cycles are begun back to back and their
// handles added to pend. bufs must stay untouched until pend is waited.
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

// BeginReadStripedScratch is ReadStripedScratch in split-phase form: it
// begins the reads of len(dst)/B blocks starting at global index
// startBlock into dst and adds the handles to pend. dst holds undefined
// contents until pend is waited.
func BeginReadStripedScratch(arr *pdm.DiskArray, baseTrack, startBlock int, dst []pdm.Word, s *Scratch, pend *pdm.PendingSet) error {
	d, b := arr.D(), arr.B()
	if len(dst)%b != 0 {
		panic(badSplit(len(dst), b))
	}
	n := len(dst) / b
	for off := 0; off < n; off += d {
		end := off + d
		if end > n {
			end = n
		}
		reqs, bufs := s.grow(end - off)
		for i := range reqs {
			reqs[i] = Striped(startBlock+off+i, d, baseTrack)
			bufs[i] = dst[(off+i)*b : (off+i+1)*b]
		}
		p, err := arr.BeginReadBlocks(reqs, bufs)
		if err != nil {
			return err
		}
		pend.Add(p)
	}
	return nil
}

// BeginWriteFIFOScratch is WriteFIFO in split-phase form with caller-owned
// scratch: the burst is packed into the same per-disk rounds and each
// round begun as one parallel I/O. Returns the number of operations begun.
func BeginWriteFIFOScratch(arr *pdm.DiskArray, reqs []pdm.BlockReq, bufs [][]pdm.Word, s *Scratch, pend *pdm.PendingSet) (int, error) {
	return packed(arr, reqs, bufs, false, s, pend)
}

// BeginReadFIFOScratch is the read-side analogue of
// BeginWriteFIFOScratch.
func BeginReadFIFOScratch(arr *pdm.DiskArray, reqs []pdm.BlockReq, bufs [][]pdm.Word, s *Scratch, pend *pdm.PendingSet) (int, error) {
	return packed(arr, reqs, bufs, true, s, pend)
}
