package pdm

import "time"

// TimeModel is a classical disk service-time model used to reproduce the
// paper's Figure 8 (Stevens' block-size measurements) and to convert I/O
// operation counts into modelled time. A request for one block of B items
// (8B bytes) costs
//
//	Seek + Rotate/2 + 8·B / TransferBytesPerSec
//
// and a parallel I/O over D disks costs the maximum of its per-disk
// requests — i.e. one request's time, since blocks are equal-sized.
//
// The defaults approximate a late-1990s SCSI disk of the kind used by the
// paper's Pentium-cluster prototype: ~10 ms average seek, 7200 rpm
// (~4.2 ms average rotational latency), 5 MB/s sustained transfer.
type TimeModel struct {
	Seek                time.Duration // average seek time per request
	Rotate              time.Duration // full-revolution time (half is charged)
	TransferBytesPerSec float64       // sustained media rate; ≤ 0 charges no transfer
}

// DefaultTimeModel returns the late-1990s disk parameters described above.
func DefaultTimeModel() TimeModel {
	return TimeModel{
		Seek:                10 * time.Millisecond,
		Rotate:              time.Second / 120, // 7200 rpm
		TransferBytesPerSec: 5e6,
	}
}

// BlockTime returns the service time for one block of b words.
func (m TimeModel) BlockTime(b int) time.Duration {
	return m.Seek + m.Rotate/2 + m.transfer(b, 1)
}

// transfer is the media time of k blocks of b words. A model without a
// positive transfer rate charges none: it is all positioning.
func (m TimeModel) transfer(b, k int) time.Duration {
	if m.TransferBytesPerSec <= 0 {
		return 0
	}
	bytes := float64(8*b) * float64(k)
	return time.Duration(bytes / m.TransferBytesPerSec * float64(time.Second))
}

// OpTime returns the time of one parallel I/O over blocks of b words:
// all disks work concurrently, so it equals one block's service time.
func (m TimeModel) OpTime(b int) time.Duration { return m.BlockTime(b) }

// BatchTime returns the service time for one coalesced batch of k
// contiguous blocks of b words: the head positions once and the k blocks
// stream past it, so the fixed Seek + Rotate/2 term is paid once rather
// than k times,
//
//	Seek + Rotate/2 + k·8·B / TransferBytesPerSec.
//
// This is the model behind DelayDisk's batched transfers and the reason
// the disk-array workers coalesce: on a real disk a batch of k tracks
// approaches the cost of one transfer of k·B words.
func (m TimeModel) BatchTime(b, k int) time.Duration {
	if k < 1 {
		return 0
	}
	return m.Seek + m.Rotate/2 + m.transfer(b, k)
}

// Throughput returns the effective transfer rate, in bytes per second,
// achieved when reading with block size b words — the quantity plotted
// against block size in Figure 8. It rises with b and saturates at the
// media rate once transfer time dominates the fixed positioning cost.
func (m TimeModel) Throughput(b int) float64 {
	t := m.BlockTime(b)
	if t <= 0 {
		return 0
	}
	return float64(8*b) / t.Seconds()
}

// IOTime converts an operation count into modelled time under block size b.
func (m TimeModel) IOTime(parallelOps int64, b int) time.Duration {
	return time.Duration(parallelOps) * m.OpTime(b)
}
