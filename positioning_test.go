package repro

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/pdm"
	"repro/internal/sortalg"
	"repro/internal/wordcodec"
	"repro/internal/workload"
)

// transfer is one track a disk served, and its direction.
type transfer struct {
	read  bool
	track int
}

// runDisk logs what a batch disk serves, in order, and counts the maximal
// runs of consecutive tracks in its batches: what a model disk charges
// one positioning each.
type runDisk struct {
	pdm.BatchDisk
	mu     sync.Mutex
	served []transfer
	runs   int
}

func (d *runDisk) log(read bool, tracks []int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, t := range tracks {
		d.served = append(d.served, transfer{read, t})
		if i == 0 || t != tracks[i-1]+1 {
			d.runs++
		}
	}
}

func (d *runDisk) ReadTracks(tracks []int, bufs [][]pdm.Word) error {
	d.log(true, tracks)
	return d.BatchDisk.ReadTracks(tracks, bufs)
}

func (d *runDisk) WriteTracks(tracks []int, bufs [][]pdm.Word) error {
	d.log(false, tracks)
	return d.BatchDisk.WriteTracks(tracks, bufs)
}

func (d *runDisk) ReadTrack(t int, dst []pdm.Word) error {
	return d.ReadTracks([]int{t}, [][]pdm.Word{dst})
}

func (d *runDisk) WriteTrack(t int, src []pdm.Word) error {
	return d.WriteTracks([]int{t}, [][]pdm.Word{src})
}

// queuedRuns is the number of runs the disk pays for what it served when
// each stretch of its queue in one direction is served as one batch: the
// workers' coalescing when every transfer is queued before the worker
// looks. A disk's queue is in begin order, which the schedule fixes, and a
// batch never spans two directions, so the stretches and their tracks are
// the same in every run. The runs of the batches actually served depend on
// timing as well: within a few of this while the processor keeps ahead of
// the device, more when it falls behind and a burst reaches the worker in
// pieces.
func (d *runDisk) queuedRuns() int {
	runs := 0
	var stretch []int
	flush := func() {
		slices.Sort(stretch)
		for i, t := range stretch {
			if i == 0 || t > stretch[i-1]+1 {
				runs++
			}
		}
		stretch = stretch[:0]
	}
	for i, x := range d.served {
		if i > 0 && x.read != d.served[i-1].read {
			flush()
		}
		stretch = append(stretch, x.track)
	}
	flush()
	return runs
}

// TestPositioningsPerDisk runs the single-processor sort on
// positioning-bound model disks (1 ms per run, 100 MB/s) and counts the
// runs each disk pays. Every message slot holds its live prefix next to
// its pair's (layout.slotBlock), and so does every context run
// (core.ctxRun), so a burst that covers both of a pair costs a disk one
// positioning for the two. A consecutive burst covers whole pairs of
// message slots; a staggered one covers one slot of each region, so there
// the pair meets only when the engine writes the two partner VPs back to
// back (core.commitOrder), which it does at ring depth K ≥ 3, or reads
// them back to back, which a prefetch distance ⌊K/2⌋ ≥ 2 does at K ≥ 4.
// The sort_seq_model shape (v = 8, D = 2, B = 4096, N = 2¹⁹) pays 156
// runs per disk at K = 1 (160 with each VP's context at its own index,
// 208 with slots stored one after the other), 143 at K = 2, where only
// the commit order moves, 119 at K = 3 (148 with each VP's writes begun
// at its own commit) and 104 at its auto depth K = 4, where the pairs
// read together too; a wider shape (v = 16, D = 4, N = 2²⁰) pays 176 at
// its auto depth K = 4 (215 at K = 3; 224 there with each VP's context at
// its own index, 292 in VP order). The tracks per
// disk and parallel I/Os do not move with K. The bounds are held on
// queuedRuns, which the schedule alone decides; the runs of the batches
// served are logged next to it.
func TestPositioningsPerDisk(t *testing.T) {
	model := pdm.TimeModel{Seek: time.Millisecond, TransferBytesPerSec: 100e6}
	for _, a := range []struct {
		n, v, d, k        int
		ops, tracks, runs int
	}{
		{1 << 19, 8, 2, 1, 384, 384, 160},
		{1 << 19, 8, 2, 2, 384, 384, 145},
		{1 << 19, 8, 2, 3, 384, 384, 120},
		{1 << 19, 8, 2, 0, 384, 384, 110},
		{1 << 20, 16, 4, 0, 512, 512, 180},
	} {
		tag := fmt.Sprintf("n=%d v=%d D=%d K=%d", a.n, a.v, a.d, a.k)
		keys := workload.Int64s(1, a.n)
		want := slices.Clone(keys)
		slices.Sort(want)
		var mu sync.Mutex
		var disks []*runDisk
		cfg := sortalg.EMSortConfig(core.Config{V: a.v, P: 1, D: a.d, B: 4096, PipelineDepth: a.k,
			NewDisk: func(int, int) pdm.Disk {
				d := &runDisk{BatchDisk: pdm.NewModelDisk(pdm.NewMemDisk(4096), model)}
				mu.Lock()
				disks = append(disks, d)
				mu.Unlock()
				return d
			}}, a.n)
		res, err := core.RunSeq[int64](sortalg.Sorter[int64]{}, wordcodec.I64{}, cfg, cgm.Scatter(keys, a.v))
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if !slices.Equal(res.Output(), want) {
			t.Fatalf("%s: output is not the sorted input", tag)
		}
		if res.IO.ParallelOps != int64(a.ops) {
			t.Errorf("%s: ParallelOps = %d, want %d", tag, res.IO.ParallelOps, a.ops)
		}
		for i, d := range disks {
			d.mu.Lock()
			tracks, runs, queued := len(d.served), d.runs, d.queuedRuns()
			d.mu.Unlock()
			t.Logf("%s (depth %d) disk %d: %d tracks, %d runs queued, %d served", tag, res.Depth, i, tracks, queued, runs)
			if tracks != a.tracks {
				t.Errorf("%s disk %d: %d tracks transferred, want %d", tag, i, tracks, a.tracks)
			}
			if queued > a.runs {
				t.Errorf("%s disk %d: %d runs, want ≤ %d", tag, i, queued, a.runs)
			}
		}
	}
}
