package layout

import (
	"repro/internal/pdm"
)

// Scratch holds the transient request/buffer storage of the layout
// entry points (the Begin…Scratch functions). A zero Scratch is ready to
// use; its slices grow on first use to the largest operation seen and are
// reused afterwards, so a scratch kept across supersteps makes the layout
// layer allocation-free in steady state.
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
func (s *Scratch) grow(n int) ([]pdm.BlockReq, [][]pdm.Word) {
	if cap(s.reqs) < n {
		s.reqs = make([]pdm.BlockReq, n)
	}
	if cap(s.bufs) < n {
		s.bufs = make([][]pdm.Word, n)
	}
	return s.reqs[:n], s.bufs[:n]
}

// byDisk sorts the indices of a burst's requests into one queue per disk,
// each in burst order: disk k's are order[queue[k]:queue[k+1]]. longest is
// the length of the longest queue.
func (s *Scratch) byDisk(reqs []pdm.BlockReq, d int) (queue, order []int, longest int) {
	if cap(s.queue) < d+1 {
		s.queue = make([]int, d+1)
	}
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

// SplitBlocksInto appends b-word block views of ws (whose length must be
// a multiple of b) to dst and returns it; the views share ws's storage,
// and a dst kept across calls makes the split allocation-free.
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
func SplitPrefixesInto(dst [][]pdm.Word, ws []pdm.Word, b, slotBlocks int, live []int) [][]pdm.Word {
	for i, n := range live {
		off := i * slotBlocks * b
		dst = SplitBlocksInto(dst, ws[off:off+n*b], b)
	}
	return dst
}
