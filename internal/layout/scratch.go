package layout

import (
	"repro/internal/pdm"
)

// Scratch holds the transient request/buffer storage of the
// allocation-free layout entry points (the …StripedScratch and
// Begin…Scratch functions). A zero Scratch
// is ready to use; its slices grow on first use to the largest operation
// seen and are reused afterwards, so a scratch kept across supersteps
// makes the layout layer allocation-free in steady state.
//
// A Scratch is owned by a single goroutine: the layout functions use it
// without synchronisation. Each real processor of the simulation keeps
// its own.
type Scratch struct {
	reqs  []pdm.BlockReq
	bufs  [][]pdm.Word
	queue []int // byDisk: where each disk's queue starts in order
	order []int // byDisk: the burst's request indices, disk by disk
}

// grow returns the scratch request and buffer slices with length n,
// reusing capacity when possible.
// emcgm:hotpath
func (s *Scratch) grow(n int) ([]pdm.BlockReq, [][]pdm.Word) {
	// emcgm:coldpath growth to the largest operation seen, amortised
	if cap(s.reqs) < n {
		s.reqs = make([]pdm.BlockReq, n)
	}
	// emcgm:coldpath growth to the largest operation seen, amortised
	if cap(s.bufs) < n {
		s.bufs = make([][]pdm.Word, n)
	}
	return s.reqs[:n], s.bufs[:n]
}

// byDisk sorts the indices of a burst's requests into one queue per disk,
// each in burst order: disk k's are order[queue[k]:queue[k+1]]. longest is
// the length of the longest queue.
// emcgm:hotpath
func (s *Scratch) byDisk(reqs []pdm.BlockReq, d int) (queue, order []int, longest int) {
	// emcgm:coldpath sized to D on first use, reused afterwards
	if cap(s.queue) < d+1 {
		s.queue = make([]int, d+1)
	}
	// emcgm:coldpath growth to the largest burst seen, amortised
	if cap(s.order) < len(reqs) {
		s.order = make([]int, len(reqs))
	}
	queue, order = s.queue[:d+1], s.order[:len(reqs)]
	clear(queue)
	for _, r := range reqs {
		queue[r.Disk]++
	}
	end := 0
	for k := 0; k < d; k++ {
		longest = max(longest, queue[k])
		end += queue[k]
		queue[k] = end
	}
	queue[d] = end
	// Filled back to front, each queue's end walks down to its start.
	for i := len(reqs) - 1; i >= 0; i-- {
		k := reqs[i].Disk
		queue[k]--
		order[queue[k]] = i
	}
	return queue, order, longest
}

// AppendStripedReqs appends the requests for blocks [startBlock,
// startBlock+n) of the striped region rooted at baseTrack to dst and
// returns it. It is the allocation-free form of building the request
// sequence Striped produces one at a time.
// emcgm:hotpath
func AppendStripedReqs(dst []pdm.BlockReq, d, baseTrack, startBlock, n int) []pdm.BlockReq {
	for i := 0; i < n; i++ {
		dst = append(dst, Striped(startBlock+i, d, baseTrack))
	}
	return dst
}

// SplitBlocksInto appends b-word block views of ws (whose length must be
// a multiple of b) to dst and returns it; the views share ws's storage.
// It is the allocation-free form of SplitBlocks.
// emcgm:hotpath
func SplitBlocksInto(dst [][]pdm.Word, ws []pdm.Word, b int) [][]pdm.Word {
	if len(ws)%b != 0 {
		panic(badSplit(len(ws), b))
	}
	for off := 0; off < len(ws); off += b {
		dst = append(dst, ws[off:off+b])
	}
	return dst
}

// SplitPrefixesInto is SplitBlocksInto over the live prefixes of equal
// slots: ws holds len(live) slot images of slotBlocks blocks each, back to
// back, and only the first live[i] blocks of slot i are appended — the
// buffers that pair with the layouts' …PrefixReqs request sequences.
// emcgm:hotpath
func SplitPrefixesInto(dst [][]pdm.Word, ws []pdm.Word, b, slotBlocks int, live []int) [][]pdm.Word {
	for i, n := range live {
		off := i * slotBlocks * b
		dst = SplitBlocksInto(dst, ws[off:off+n*b], b)
	}
	return dst
}

// WriteStripedScratch is WriteStriped with caller-owned scratch: the
// per-cycle request slices come from s instead of fresh allocations.
// emcgm:hotpath
func WriteStripedScratch(arr *pdm.DiskArray, baseTrack, startBlock int, bufs [][]pdm.Word, s *Scratch) error {
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
		if err := arr.WriteBlocks(reqs, bufs[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// ReadStripedScratch is ReadStriped with a caller-owned destination and
// scratch: it reads len(dst)/B blocks starting at global index startBlock
// into dst (whose length must be a multiple of the array's block size).
// emcgm:hotpath
func ReadStripedScratch(arr *pdm.DiskArray, baseTrack, startBlock int, dst []pdm.Word, s *Scratch) error {
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
		if err := arr.ReadBlocks(reqs, bufs); err != nil {
			return err
		}
	}
	return nil
}
