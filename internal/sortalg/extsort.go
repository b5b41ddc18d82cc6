package sortalg

import (
	"container/heap"
	"fmt"

	"repro/internal/layout"
	"repro/internal/pdm"
)

// srun describes a sorted run on disk: its first block (region-relative)
// and record count.
type srun struct {
	startBlock int
	nRecs      int
}

// Info reports the structure and cost of an external mergesort run.
type Info struct {
	Records int   // records sorted
	Runs    int   // initial sorted runs formed
	FanIn   int   // merge fan-in (runs merged per pass)
	Passes  int   // merge passes over the data
	LoadOps int64 // parallel I/Os spent loading the input region
	SortOps int64 // parallel I/Os of the sort itself (the PDM measure)
	ReadOps int64 // parallel I/Os spent reading the result back
}

// MergeSort sorts fixed-size records externally on the given disk array —
// the classical PDM multiway mergesort used as the paper's comparison
// baseline. Records are recWords words each, compared by their first word
// (unsigned); mWords is the internal memory budget in words.
//
// The algorithm forms ⌈N/M⌉ sorted runs, then merges them with fan-in
// ⌊M/(DB)⌋−1, giving ⌈log_f(runs)⌉ passes of 2·N/(DB) parallel I/Os each —
// the Θ((N/DB)·log_{M/B}(N/B)) bound the paper's simulation beats in the
// coarse-grained parameter range.
//
// Requirements: recWords must divide B, and mWords must be at least
// 3·D·B (one input buffer per merged run plus an output buffer).
func MergeSort(arr *pdm.DiskArray, recs []pdm.Word, recWords, mWords int) ([]pdm.Word, Info, error) {
	b, d := arr.B(), arr.D()
	var info Info
	if recWords < 1 || len(recs)%recWords != 0 {
		return nil, info, fmt.Errorf("sortalg: %d words is not a whole number of %d-word records", len(recs), recWords)
	}
	if b%recWords != 0 {
		return nil, info, fmt.Errorf("sortalg: record size %d must divide block size %d", recWords, b)
	}
	nRecs := len(recs) / recWords
	info.Records = nRecs
	if nRecs == 0 {
		return nil, info, nil
	}
	fanIn := mWords/(d*b) - 1
	if fanIn < 2 {
		return nil, info, fmt.Errorf("sortalg: M = %d words allows merge fan-in %d; need ≥ 2 (M ≥ 3·D·B = %d)",
			mWords, fanIn, 3*d*b)
	}
	chunkBlocks := mWords / b
	if chunkBlocks < 1 {
		chunkBlocks = 1
	}

	totalBlocks := pdm.BlocksFor(len(recs), b)
	regionTracks := (totalBlocks+d-1)/d + 1
	baseA, baseB := 0, regionTracks
	sio := &stripedIO{arr: arr}

	// Load the input into region A.
	padded := make([]pdm.Word, totalBlocks*b)
	copy(padded, recs)
	if err := sio.write(baseA, 0, padded); err != nil {
		return nil, info, err
	}
	info.LoadOps = arr.Stats().ParallelOps
	markSort := info.LoadOps

	recsPerBlock := b / recWords

	// Run formation: sort memory-sized chunks in place, records by their
	// first word with the radix kernel (whole records swap places).
	var runs []srun
	chunk := make([]pdm.Word, chunkBlocks*b)
	for startRec := 0; startRec < nRecs; {
		startBlock := startRec / recsPerBlock
		take := chunkBlocks * recsPerBlock
		if startRec+take > nRecs {
			take = nRecs - startRec
		}
		img := chunk[:pdm.BlocksFor(take*recWords, b)*b]
		if err := sio.read(baseA, startBlock, img); err != nil {
			return nil, info, err
		}
		radixSort(img[:take*recWords], recWords)
		if err := sio.write(baseA, startBlock, img); err != nil {
			return nil, info, err
		}
		runs = append(runs, srun{startBlock: startBlock, nRecs: take})
		startRec += take
	}
	info.Runs = len(runs)
	info.FanIn = fanIn

	// Merge passes, ping-ponging between regions A and B.
	srcBase, dstBase := baseA, baseB
	for len(runs) > 1 {
		info.Passes++
		var next []srun
		outBlock := 0
		for lo := 0; lo < len(runs); lo += fanIn {
			hi := lo + fanIn
			if hi > len(runs) {
				hi = len(runs)
			}
			group := runs[lo:hi]
			merged, err := mergeGroup(sio, srcBase, dstBase, outBlock, group, recWords, d, b)
			if err != nil {
				return nil, info, err
			}
			next = append(next, srun{startBlock: outBlock, nRecs: merged})
			outBlock += pdm.BlocksFor(merged*recWords, b)
		}
		runs = next
		srcBase, dstBase = dstBase, srcBase
	}
	info.SortOps = arr.Stats().ParallelOps - markSort
	markRead := arr.Stats().ParallelOps

	// Read the final run back.
	out := make([]pdm.Word, pdm.BlocksFor(nRecs*recWords, b)*b)
	if err := sio.read(srcBase, runs[0].startBlock, out); err != nil {
		return nil, info, err
	}
	info.ReadOps = arr.Stats().ParallelOps - markRead
	return out[:nRecs*recWords], info, nil
}

// stripedIO issues MergeSort's transfers through layout's split-phase
// entry points one D-block cycle at a time, waiting each cycle before it
// begins the next: the schedule of pdm's ReadBlocks/WriteBlocks, one
// parallel I/O in flight, so a buffer is free for reuse as soon as its
// transfer returns.
type stripedIO struct {
	arr  *pdm.DiskArray
	lay  layout.Scratch
	pend pdm.PendingSet
	bufs [][]pdm.Word
}

// write writes ws, a whole number of blocks, as the blocks from start on
// of the striped region rooted at track base.
func (s *stripedIO) write(base, start int, ws []pdm.Word) error {
	return s.cycles(layout.BeginWriteStripedScratch, base, start, ws)
}

// read fills dst, a whole number of blocks, from the blocks from start on
// of the striped region rooted at track base.
func (s *stripedIO) read(base, start int, dst []pdm.Word) error {
	return s.cycles(layout.BeginReadStripedScratch, base, start, dst)
}

// cycles moves ws through begin one D-block cycle at a time.
func (s *stripedIO) cycles(begin func(*pdm.DiskArray, int, int, [][]pdm.Word, *layout.Scratch, *pdm.PendingSet) error, base, start int, ws []pdm.Word) error {
	s.bufs = layout.SplitBlocksInto(s.bufs[:0], ws, s.arr.B())
	d := s.arr.D()
	for off := 0; off < len(s.bufs); off += d {
		cycle := s.bufs[off:min(off+d, len(s.bufs))]
		if err := s.wait(begin(s.arr, base, start+off, cycle, &s.lay, &s.pend)); err != nil {
			return err
		}
	}
	return nil
}

// wait completes the cycle a begin left in the set. A cycle is one
// parallel I/O, so a begin that fails has added nothing to wait for.
func (s *stripedIO) wait(begin error) error {
	if begin != nil {
		return begin
	}
	return s.pend.Wait()
}

// mergeGroup merges a group of sorted runs from the source region into the
// destination region starting at dstBlock, using one DB-word input buffer
// per run and one DB-word output buffer. Returns the merged record count.
func mergeGroup(sio *stripedIO, srcBase, dstBase, dstBlock int, group []srun, recWords, d, b int) (int, error) {
	type cursor struct {
		buf       []pdm.Word // DB-word input buffer
		pos       int        // word offset of next record in buf
		nextBlock int        // next block to read within the run
		remRecs   int        // records not yet consumed (incl. buffered)
		bufRecs   int        // records currently buffered
	}
	bufBlocks := d // DB words per input buffer
	curs := make([]*cursor, len(group))
	total := 0
	for i, r := range group {
		curs[i] = &cursor{buf: make([]pdm.Word, bufBlocks*b), nextBlock: r.startBlock, remRecs: r.nRecs}
		total += r.nRecs
	}
	recsPerBlock := b / recWords

	fill := func(c *cursor) error {
		if c.bufRecs > 0 || c.remRecs == 0 {
			return nil
		}
		nb := bufBlocks
		needBlocks := pdm.BlocksFor(c.remRecs*recWords, b)
		if nb > needBlocks {
			nb = needBlocks
		}
		if err := sio.read(srcBase, c.nextBlock, c.buf[:nb*b]); err != nil {
			return err
		}
		c.nextBlock += nb
		c.pos = 0
		c.bufRecs = nb * recsPerBlock
		if c.bufRecs > c.remRecs {
			c.bufRecs = c.remRecs
		}
		return nil
	}

	// Initialise a loser-tree-free simple heap over run heads.
	h := &runHeap{recWords: recWords}
	for i, c := range curs {
		if err := fill(c); err != nil {
			return 0, err
		}
		if c.bufRecs > 0 {
			h.entries = append(h.entries, runEntry{key: c.buf[c.pos], idx: i})
		}
	}
	heap.Init(h)

	outBuf := make([]pdm.Word, 0, d*b)
	outBlock := dstBlock
	flush := func(final bool) error {
		if len(outBuf) == 0 {
			return nil
		}
		if !final && len(outBuf) < d*b {
			return nil
		}
		img := outBuf[:pdm.BlocksFor(len(outBuf), b)*b]
		clear(img[len(outBuf):])
		if err := sio.write(dstBase, outBlock, img); err != nil {
			return err
		}
		outBlock += len(img) / b
		outBuf = outBuf[:0]
		return nil
	}

	for h.Len() > 0 {
		e := h.entries[0]
		c := curs[e.idx]
		outBuf = append(outBuf, c.buf[c.pos:c.pos+recWords]...)
		c.pos += recWords
		c.bufRecs--
		c.remRecs--
		if c.bufRecs == 0 {
			if err := fill(c); err != nil {
				return 0, err
			}
		}
		if c.bufRecs > 0 {
			h.entries[0].key = c.buf[c.pos]
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
		if len(outBuf) == d*b {
			if err := flush(false); err != nil {
				return 0, err
			}
		}
	}
	if err := flush(true); err != nil {
		return 0, err
	}
	return total, nil
}

type runEntry struct {
	key pdm.Word
	idx int
}

type runHeap struct {
	entries  []runEntry
	recWords int
}

func (h *runHeap) Len() int           { return len(h.entries) }
func (h *runHeap) Less(i, j int) bool { return h.entries[i].key < h.entries[j].key }
func (h *runHeap) Swap(i, j int)      { h.entries[i], h.entries[j] = h.entries[j], h.entries[i] }
func (h *runHeap) Push(x any)         { h.entries = append(h.entries, x.(runEntry)) }
func (h *runHeap) Pop() any {
	e := h.entries[len(h.entries)-1]
	h.entries = h.entries[:len(h.entries)-1]
	return e
}
