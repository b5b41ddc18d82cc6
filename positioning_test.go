package repro

import (
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
// its pair's (layout.slotBlock), so a consecutive burst costs a disk about
// one positioning per pair of messages rather than one per message: 160
// runs per disk against 208 for slots stored one after the other, for the
// same 384 tracks per disk and 384 parallel I/Os. The bound is held
// on queuedRuns, which the schedule alone decides; the runs of the
// batches served are logged next to it.
func TestPositioningsPerDisk(t *testing.T) {
	const n, v = 1 << 19, 8
	keys := workload.Int64s(1, n)
	want := slices.Clone(keys)
	slices.Sort(want)
	model := pdm.TimeModel{Seek: time.Millisecond, TransferBytesPerSec: 100e6}
	for _, k := range []int{1, 2, 0} {
		var mu sync.Mutex
		var disks []*runDisk
		cfg := sortalg.EMSortConfig(core.Config{V: v, P: 1, D: 2, B: 4096, PipelineDepth: k,
			NewDisk: func(int, int) pdm.Disk {
				d := &runDisk{BatchDisk: pdm.NewModelDisk(pdm.NewMemDisk(4096), model)}
				mu.Lock()
				disks = append(disks, d)
				mu.Unlock()
				return d
			}}, n)
		res, err := core.RunSeq[int64](sortalg.Sorter[int64]{}, wordcodec.I64{}, cfg, cgm.Scatter(keys, v))
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if !slices.Equal(res.Output(), want) {
			t.Fatalf("K=%d: output is not the sorted input", k)
		}
		if res.IO.ParallelOps != 384 {
			t.Errorf("K=%d: ParallelOps = %d, want 384", k, res.IO.ParallelOps)
		}
		for i, d := range disks {
			d.mu.Lock()
			tracks, runs, queued := len(d.served), d.runs, d.queuedRuns()
			d.mu.Unlock()
			t.Logf("K=%d (depth %d) disk %d: %d tracks, %d runs queued, %d served", k, res.Depth, i, tracks, queued, runs)
			if tracks != 384 {
				t.Errorf("K=%d disk %d: %d tracks transferred, want 384", k, i, tracks)
			}
			if queued > 170 {
				t.Errorf("K=%d disk %d: %d runs, want ≤ 170", k, i, queued)
			}
		}
	}
}
