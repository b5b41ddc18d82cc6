package pdm

import "time"

// DelayDisk wraps a BatchDisk and charges a service delay per transfer
// before forwarding to the wrapped disk. It turns a MemDisk into a
// latency-modelled disk: contents and accounting are exactly those of
// the inner disk, but wall-clock time behaves like real storage, which is
// what the pipelining benchmarks need to measure I/O–compute overlap
// without touching the filesystem. Concurrent transfers on distinct
// DelayDisks overlap their delays, just as the PDM's independent disks
// overlap their service times.
//
// DelayDisk implements BatchDisk, and ReadTrack/WriteTrack are one-track
// batches. A batch of k tracks costs one positioning per contiguous run
// plus k transfers: Seek + Rotate/2 + k·8B/rate for one run on a model
// disk (NewModelDisk), which is how a real disk amortises positioning over
// a long sequential run. A fixed-delay disk (NewDelayDisk) is the model
// with zero positioning, so it charges k·delay whatever the runs.
type DelayDisk struct {
	inner    BatchDisk
	position time.Duration // once per contiguous run
	xfer     time.Duration // once per track
}

// NewDelayDisk wraps inner with a fixed per-transfer delay. A
// non-positive delay forwards without sleeping.
func NewDelayDisk(inner BatchDisk, delay time.Duration) *DelayDisk {
	return &DelayDisk{inner: inner, xfer: delay}
}

// NewModelDisk wraps inner with the per-block service time of the given
// TimeModel — Seek + Rotate/2 + transfer for the inner disk's block size.
// Batched transfers amortise the positioning term over each contiguous
// run (see TimeModel.BatchTime).
func NewModelDisk(inner BatchDisk, m TimeModel) *DelayDisk {
	position := m.Seek + m.Rotate/2
	return &DelayDisk{inner: inner, position: position, xfer: m.BlockTime(inner.BlockSize()) - position}
}

// batchDelay returns the modelled service time of a batch over the given
// strictly-ascending tracks: one positioning cost per contiguous run plus
// one transfer per track.
func (d *DelayDisk) batchDelay(tracks []int) time.Duration {
	runs := time.Duration(0)
	for i, t := range tracks {
		if i == 0 || t != tracks[i-1]+1 {
			runs++
		}
	}
	return runs*d.position + time.Duration(len(tracks))*d.xfer
}

// ReadTrack reads track t into dst: a one-track ReadTracks.
func (d *DelayDisk) ReadTrack(t int, dst []Word) error {
	tracks, bufs := [1]int{t}, [1][]Word{dst}
	return d.ReadTracks(tracks[:], bufs[:])
}

// WriteTrack stores src as track t: a one-track WriteTracks.
func (d *DelayDisk) WriteTrack(t int, src []Word) error {
	tracks, bufs := [1]int{t}, [1][]Word{src}
	return d.WriteTracks(tracks[:], bufs[:])
}

// ReadTracks implements BatchDisk: one modelled batch delay, then the
// inner disk's ReadTracks, which checks the batch.
func (d *DelayDisk) ReadTracks(tracks []int, bufs [][]Word) error {
	time.Sleep(d.batchDelay(tracks))
	return d.inner.ReadTracks(tracks, bufs)
}

// WriteTracks implements BatchDisk: one modelled batch delay, then the
// inner disk's WriteTracks.
func (d *DelayDisk) WriteTracks(tracks []int, bufs [][]Word) error {
	time.Sleep(d.batchDelay(tracks))
	return d.inner.WriteTracks(tracks, bufs)
}

// Discard forwards to the inner disk if it is a Discarder, without a
// delay: a discard moves no data.
func (d *DelayDisk) Discard(tracks []int) {
	if dd, ok := d.inner.(Discarder); ok {
		dd.Discard(tracks)
	}
}

// Syscalls forwards the inner disk's syscall count, if it keeps one.
func (d *DelayDisk) Syscalls() int64 {
	if sc, ok := d.inner.(SyscallCounter); ok {
		return sc.Syscalls()
	}
	return 0
}

// BlockSize returns the inner disk's block size.
func (d *DelayDisk) BlockSize() int { return d.inner.BlockSize() }

// Tracks returns the inner disk's track count.
func (d *DelayDisk) Tracks() int { return d.inner.Tracks() }

// Close closes the inner disk.
func (d *DelayDisk) Close() error { return d.inner.Close() }

var (
	_ Disk           = (*DelayDisk)(nil)
	_ BatchDisk      = (*DelayDisk)(nil)
	_ SyscallCounter = (*DelayDisk)(nil)
	_ Discarder      = (*DelayDisk)(nil)
)
