package pdm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// diskOp is one track transfer dispatched to a disk worker. The result is
// stored through err; wg is signalled when the transfer completes.
type diskOp struct {
	track int
	buf   []Word
	read  bool
	err   *error
	wg    *sync.WaitGroup
}

// diskObs is one disk's observability state, shared between the array and
// its worker. SetRecorder fills it under opMu while no transfer is in
// flight; the worker reads it only while servicing an op, and the channel
// hand-off orders those accesses, so no atomics are needed.
type diskObs struct {
	rec      *obs.Recorder
	track    obs.TrackID
	lat      *obs.Histogram // per-service service time, nanoseconds
	batch    *obs.Histogram // transfers coalesced per service (BatchDisk workers)
	fit      *obs.FitAcc    // (runs, tracks, latency) calibration moments
	inflight *atomic.Int64  // array-wide outstanding transfers
}

// workerBatch is one batching worker's private scratch, allocated once in
// NewDiskArray (the worker itself is a hot path and must not allocate):
// the collected ops, and the parallel track/buffer arrays handed to the
// BatchDisk call.
type workerBatch struct {
	ops    []diskOp
	tracks []int
	bufs   [][]Word
}

// diskWorker services one disk's transfers for the lifetime of the array.
// It references only its disk, channel and observability slot — never the
// DiskArray — so an abandoned array stays collectable and its cleanup can
// stop the workers. With a recorder attached, each service is timed into
// the disk's latency histogram and emitted as a span on the disk's track;
// the disabled path is the original straight-line transfer.
//
// When the disk implements BatchDisk (bat non-nil), the worker coalesces:
// after taking one op it opportunistically drains whatever else is
// already queued — without blocking, so a sparse queue degrades to the
// per-track path — and serves the run as one batched call. Collection
// cuts at MaxBatchTracks, on a direction change, or on a duplicate
// track: the per-disk FIFO is the ordering guarantee for write→read
// dependencies, and a batch only reorders same-direction transfers on
// distinct tracks, which commute. The cut-off op is carried into the
// next batch, never reordered past it. Deep queues only build up under
// the split-phase pipelined drivers; synchronous callers wait out each
// operation, so their batches stay at one track and behave exactly as
// before.
func diskWorker(d Disk, ch <-chan diskOp, ob *diskObs, bat *workerBatch) {
	bd, _ := d.(BatchDisk)
	if bat == nil || bd == nil {
		for op := range ch {
			serveOp(d, op, ob)
		}
		return
	}
	var carry diskOp
	hasCarry := false
	open := true
	for open || hasCarry {
		var first diskOp
		if hasCarry {
			first, hasCarry = carry, false
		} else {
			first, open = <-ch
			if !open {
				return
			}
		}
		ops := bat.ops[:0]
		ops = append(ops, first)
	collect:
		for len(ops) < MaxBatchTracks {
			select {
			case next, ok := <-ch:
				if !ok {
					open = false
					break collect
				}
				if next.read != first.read || batchHasTrack(ops, next.track) {
					carry, hasCarry = next, true
					break collect
				}
				ops = append(ops, next)
			default:
				break collect
			}
		}
		serveBatch(bd, ops, ob, bat)
	}
}

// serveOp services one single-track transfer and signals its Pending.
func serveOp(d Disk, op diskOp, ob *diskObs) {
	var err error
	if ob.rec == nil {
		if op.read {
			err = d.ReadTrack(op.track, op.buf)
		} else {
			err = d.WriteTrack(op.track, op.buf)
		}
	} else {
		t0 := time.Now()
		name := "write"
		if op.read {
			err = d.ReadTrack(op.track, op.buf)
			name = "read"
		} else {
			err = d.WriteTrack(op.track, op.buf)
		}
		lat := int64(time.Since(t0))
		ob.lat.Observe(lat)
		ob.fit.Observe(1, 1, lat)
		ob.rec.SpanSince(ob.track, name, "disk", t0)
		ob.inflight.Add(-1)
	}
	*op.err = err
	op.wg.Done()
}

// batchHasTrack reports whether the collected ops already address track t.
// Batches are bounded by MaxBatchTracks, so a linear scan beats any
// set structure that would have to be cleared per batch.
func batchHasTrack(ops []diskOp, t int) bool {
	for i := range ops {
		if ops[i].track == t {
			return true
		}
	}
	return false
}

// serveBatch services a coalesced run of same-direction transfers as one
// BatchDisk call: the ops are insertion-sorted by track (the batch
// contract wants strictly ascending tracks; same-direction distinct-track
// transfers commute, so sorting is safe), served in one call, and their
// Pendings signalled individually. If the batched call fails, the batch
// is re-issued track by track so each Pending sees its own transfer's
// error, exactly as without coalescing.
func serveBatch(bd BatchDisk, ops []diskOp, ob *diskObs, bat *workerBatch) {
	if ob.rec != nil {
		ob.batch.Observe(int64(len(ops)))
	}
	if len(ops) == 1 {
		serveOp(bd, ops[0], ob)
		ops[0] = diskOp{}
		return
	}
	for i := 1; i < len(ops); i++ {
		for j := i; j > 0 && ops[j].track < ops[j-1].track; j-- {
			ops[j], ops[j-1] = ops[j-1], ops[j]
		}
	}
	tracks := bat.tracks[:len(ops)]
	bufs := bat.bufs[:len(ops)]
	for i := range ops {
		tracks[i] = ops[i].track
		bufs[i] = ops[i].buf
	}
	read := ops[0].read
	var err error
	if ob.rec == nil {
		if read {
			err = bd.ReadTracks(tracks, bufs)
		} else {
			err = bd.WriteTracks(tracks, bufs)
		}
	} else {
		t0 := time.Now()
		name := "writev"
		if read {
			err = bd.ReadTracks(tracks, bufs)
			name = "readv"
		} else {
			err = bd.WriteTracks(tracks, bufs)
		}
		lat := int64(time.Since(t0))
		// Contiguous-run count over the (sorted ascending) tracks — the
		// positioning events the TimeModel calibration fit regresses on.
		runs := 1
		for i := 1; i < len(tracks); i++ {
			if tracks[i] != tracks[i-1]+1 {
				runs++
			}
		}
		ob.lat.Observe(lat)
		ob.fit.Observe(runs, len(tracks), lat)
		ob.rec.SpanSince(ob.track, name, "disk", t0)
		ob.inflight.Add(-int64(len(ops)))
	}
	if err != nil {
		// A batch may fail part-way (or for a reason only one track
		// triggers); re-issue per track so every Pending gets its own
		// transfer's exact error, as if never coalesced.
		for i := range ops {
			op := ops[i]
			var e error
			if op.read {
				e = bd.ReadTrack(op.track, op.buf)
			} else {
				e = bd.WriteTrack(op.track, op.buf)
			}
			*op.err = e
			op.wg.Done()
		}
	} else {
		for i := range ops {
			*ops[i].err = nil
			ops[i].wg.Done()
		}
	}
	// Drop buffer references from the long-lived scratch so served blocks
	// stay collectable between batches.
	for i := range ops {
		bufs[i] = nil
		ops[i] = diskOp{}
	}
}

// workerStop carries what the GC cleanup needs to terminate the workers of
// an abandoned array without keeping the array itself alive.
type workerStop struct {
	work []chan diskOp
	stop *sync.Once
}

func (s workerStop) shutdown() {
	s.stop.Do(func() {
		for _, ch := range s.work {
			close(ch)
		}
	})
}

// DiskArray drives D disks as one parallel I/O device. A single call to
// ReadBlocks or WriteBlocks is one PDM parallel I/O operation: it may
// address at most one track per disk and is executed by persistent
// per-disk worker goroutines (started on construction, stopped on Close),
// so disk transfers genuinely overlap without paying a goroutine spawn
// per block.
//
// The array counts operations exactly as the PDM cost measure does: an
// operation involving fewer than D blocks still costs one parallel I/O
// (the model "gives incentives to access all disk drives").
//
// A parallel I/O operation is atomic in the model, and the array enforces
// that: operation begins are serialised, which is what lets the dispatch
// scratch below be reused without allocation. Completion may lag begin:
// BeginReadBlocks/BeginWriteBlocks return a Pending handle while the
// transfers drain on the workers, and accounting is charged at begin
// time, so the PDM counts are independent of how operations overlap.
// The per-disk work queues are FIFO, so transfers on one disk execute in
// operation begin order — begin-order write→read dependencies on the
// same track are therefore always honoured.
type DiskArray struct {
	disks []Disk
	b     int

	// opMu serialises operation begins and guards the dispatch scratch
	// (seen), the Pending freelist, and the closed flag. Completions are
	// signalled lock-free through each Pending's WaitGroup.
	opMu   sync.Mutex
	work   []chan diskOp
	seen   []uint64 // disk bitset reused by checkReqs
	free   *Pending // recycled split-phase handles, guarded by opMu
	stop   *sync.Once
	closed bool

	// check, when non-nil, validates every operation against the layout
	// discipline before dispatch (see EnableChecked). nil in production:
	// the hot path pays one nil check, like the recorder.
	check *checker

	stats ioCounters

	// Observability (nil when recording is disabled — the hot path then
	// pays exactly one nil check per parallel operation).
	rec       *obs.Recorder
	diskObs   []*diskObs
	depthHist *obs.Histogram // outstanding transfers observed per op
	fullHist  *obs.Histogram // blocks per parallel op (fullness numerator)
	inflight  atomic.Int64
}

// ioCounters is the atomic backing of IOStats: accounting never takes a
// lock, and Stats can snapshot concurrently with I/O.
type ioCounters struct {
	parallelOps atomic.Int64
	readOps     atomic.Int64
	writeOps    atomic.Int64
	blocksMoved atomic.Int64
	wordsMoved  atomic.Int64
	fullOps     atomic.Int64
}

// ArrayOptions tunes a DiskArray beyond its disks.
type ArrayOptions struct {
	// QueueDepth is the caller's bound on transfers concurrently in
	// flight per disk — a depth-k pipelined driver passes its window's
	// burst size here. The per-disk work queues are sized to
	// max(QueueDepth, the built-in default), so a window deeper than the
	// default capacity still begins without blocking instead of silently
	// serializing against the workers. 0 keeps the default.
	QueueDepth int
}

// NewDiskArray builds an array over the given disks, which must all share
// the same block size, and starts one worker goroutine per disk.
func NewDiskArray(disks []Disk) (*DiskArray, error) {
	return NewDiskArrayOpts(disks, ArrayOptions{})
}

// NewDiskArrayOpts is NewDiskArray with explicit options.
func NewDiskArrayOpts(disks []Disk, opts ArrayOptions) (*DiskArray, error) {
	if len(disks) == 0 {
		return nil, fmt.Errorf("pdm: disk array needs at least one disk")
	}
	b := disks[0].BlockSize()
	for i, d := range disks {
		if d.BlockSize() != b {
			return nil, fmt.Errorf("pdm: disk %d has block size %d, want %d", i, d.BlockSize(), b)
		}
	}
	depth := diskQueueDepth
	if opts.QueueDepth > depth {
		depth = opts.QueueDepth
	}
	a := &DiskArray{
		disks:   disks,
		b:       b,
		work:    make([]chan diskOp, len(disks)),
		seen:    make([]uint64, (len(disks)+63)/64),
		stop:    new(sync.Once),
		diskObs: make([]*diskObs, len(disks)),
	}
	for i, d := range disks {
		ch := make(chan diskOp, depth)
		a.work[i] = ch
		a.diskObs[i] = &diskObs{}
		// Batch-capable disks get coalescing workers; their scratch is
		// allocated here, once, because the worker loop is a hot path.
		var bat *workerBatch
		if _, ok := d.(BatchDisk); ok {
			bat = &workerBatch{
				ops:    make([]diskOp, 0, MaxBatchTracks),
				tracks: make([]int, MaxBatchTracks),
				bufs:   make([][]Word, MaxBatchTracks),
			}
		}
		go diskWorker(d, ch, a.diskObs[i], bat)
	}
	// Backstop for arrays dropped without Close: closing the request
	// channels lets the workers exit once the array is unreachable.
	runtime.AddCleanup(a, workerStop.shutdown, workerStop{work: a.work, stop: a.stop})
	return a, nil
}

// NewMemArray is a convenience constructor: D in-memory disks of block
// size b.
func NewMemArray(d, b int) *DiskArray {
	return NewMemArrayOpts(d, b, ArrayOptions{})
}

// NewMemArrayOpts is NewMemArray with explicit options.
func NewMemArrayOpts(d, b int, opts ArrayOptions) *DiskArray {
	disks := make([]Disk, d)
	for i := range disks {
		disks[i] = NewMemDisk(b)
	}
	a, err := NewDiskArrayOpts(disks, opts)
	if err != nil {
		panic(err) // unreachable: homogeneous by construction
	}
	return a
}

// D returns the number of disks.
func (a *DiskArray) D() int { return len(a.disks) }

// B returns the block size in words.
func (a *DiskArray) B() int { return a.b }

// Disk returns the i-th underlying disk (used by tests and layouts).
func (a *DiskArray) Disk(i int) Disk { return a.disks[i] }

// SetRecorder attaches an observability recorder to the array: one trace
// track and latency histogram per disk (named after the owning real
// processor proc), queue-depth and blocks-per-op histograms, and gauges
// mirroring the atomic I/O counters for the /metrics endpoint. A nil rec
// detaches. Serialised against I/O by opMu, so it must not be called from
// inside a transfer; attach before the run starts.
//
// Recording never changes the counted operations — the PDM accounting
// stays bit-identical with and without a recorder.
func (a *DiskArray) SetRecorder(rec *obs.Recorder, proc int) {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	a.rec = rec
	if rec == nil {
		for _, ob := range a.diskObs {
			*ob = diskObs{}
		}
		a.depthHist, a.fullHist = nil, nil
		return
	}
	for i, ob := range a.diskObs {
		ob.rec = rec
		ob.track = rec.Track(fmt.Sprintf("p%d disk %d", proc, i))
		ob.lat = rec.Histogram(fmt.Sprintf("pdm_p%d_disk%d_latency_ns", proc, i))
		ob.batch = rec.Histogram(fmt.Sprintf("pdm_p%d_disk%d_batch_blocks", proc, i))
		ob.fit = rec.Fit(fmt.Sprintf("pdm_p%d_disk%d", proc, i))
		ob.inflight = &a.inflight
		if sc, ok := a.disks[i].(SyscallCounter); ok {
			rec.Gauge(fmt.Sprintf("pdm_p%d_disk%d_syscalls", proc, i), sc.Syscalls)
		}
	}
	a.depthHist = rec.Histogram(fmt.Sprintf("pdm_p%d_queue_depth", proc))
	a.fullHist = rec.Histogram(fmt.Sprintf("pdm_p%d_blocks_per_op", proc))
	rec.Gauge(fmt.Sprintf("pdm_p%d_parallel_ops", proc), a.stats.parallelOps.Load)
	rec.Gauge(fmt.Sprintf("pdm_p%d_read_ops", proc), a.stats.readOps.Load)
	rec.Gauge(fmt.Sprintf("pdm_p%d_write_ops", proc), a.stats.writeOps.Load)
	rec.Gauge(fmt.Sprintf("pdm_p%d_blocks_moved", proc), a.stats.blocksMoved.Load)
	rec.Gauge(fmt.Sprintf("pdm_p%d_words_moved", proc), a.stats.wordsMoved.Load)
	rec.Gauge(fmt.Sprintf("pdm_p%d_full_ops", proc), a.stats.fullOps.Load)
	rec.Gauge(fmt.Sprintf("pdm_p%d_syscalls", proc), func() int64 { return SyscallsOf(a) })
}

// Stats returns a snapshot of the accumulated I/O statistics.
func (a *DiskArray) Stats() IOStats {
	return IOStats{
		ParallelOps: a.stats.parallelOps.Load(),
		ReadOps:     a.stats.readOps.Load(),
		WriteOps:    a.stats.writeOps.Load(),
		BlocksMoved: a.stats.blocksMoved.Load(),
		WordsMoved:  a.stats.wordsMoved.Load(),
		FullOps:     a.stats.fullOps.Load(),
	}
}

// ResetStats zeroes the accumulated statistics.
func (a *DiskArray) ResetStats() {
	a.stats.parallelOps.Store(0)
	a.stats.readOps.Store(0)
	a.stats.writeOps.Store(0)
	a.stats.blocksMoved.Store(0)
	a.stats.wordsMoved.Store(0)
	a.stats.fullOps.Store(0)
}

// checkReqs validates the one-track-per-disk PDM rule. Called with opMu
// held; the seen bitset is cleared and reused across operations.
func (a *DiskArray) checkReqs(reqs []BlockReq) error {
	if len(reqs) > len(a.disks) {
		return fmt.Errorf("pdm: %d blocks in one parallel I/O, array has D=%d: %w",
			len(reqs), len(a.disks), ErrDiskConflict)
	}
	seen := a.seen
	for i := range seen {
		seen[i] = 0
	}
	for _, r := range reqs {
		if r.Disk < 0 || r.Disk >= len(a.disks) {
			return fmt.Errorf("pdm: disk index %d out of range [0,%d)", r.Disk, len(a.disks))
		}
		w, bit := r.Disk>>6, uint64(1)<<(r.Disk&63)
		if seen[w]&bit != 0 {
			return fmt.Errorf("pdm: disk %d addressed twice: %w", r.Disk, ErrDiskConflict)
		}
		seen[w] |= bit
	}
	return nil
}

// ReadBlocks performs one parallel I/O reading reqs[i] into bufs[i]
// (each of length B). Transfers run concurrently on the per-disk workers.
// An empty request list performs no I/O and costs nothing.
func (a *DiskArray) ReadBlocks(reqs []BlockReq, bufs [][]Word) error {
	return a.doBlocks(reqs, bufs, true)
}

// WriteBlocks performs one parallel I/O writing bufs[i] (length B) to
// reqs[i]. Transfers run concurrently on the per-disk workers.
func (a *DiskArray) WriteBlocks(reqs []BlockReq, bufs [][]Word) error {
	return a.doBlocks(reqs, bufs, false)
}

// diskQueueDepth is the default capacity of each per-disk work channel.
// Split-phase callers keep several operations in flight (a depth-k
// window's worth of reads and writes under the pipelined drivers), so
// the queues must absorb a multi-cycle transfer without blocking the
// driver at begin time; callers with deeper windows raise the capacity
// via ArrayOptions.QueueDepth. A driver that outruns the capacity
// degrades gracefully — begin blocks until a worker drains a slot, it
// never deadlocks, because the workers themselves never take opMu.
const diskQueueDepth = 128

// doBlocks is the synchronous path: one split-phase begin immediately
// followed by its wait. Routing both paths through begin keeps the
// accounting and validation literally the same code, so the synchronous
// and pipelined schedules cannot drift apart. Zero heap allocations in
// steady state (TestDiskArrayOpZeroAlloc, BenchmarkDiskArrayOp).
func (a *DiskArray) doBlocks(reqs []BlockReq, bufs [][]Word, read bool) error {
	p, err := a.begin(reqs, bufs, read)
	if err != nil {
		return err
	}
	return p.Wait()
}

// account updates the atomic PDM counters for one completed operation.
func (a *DiskArray) account(blocks int, read bool) {
	a.stats.parallelOps.Add(1)
	a.stats.blocksMoved.Add(int64(blocks))
	a.stats.wordsMoved.Add(int64(blocks) * int64(a.b))
	if read {
		a.stats.readOps.Add(1)
	} else {
		a.stats.writeOps.Add(1)
	}
	if blocks == len(a.disks) {
		a.stats.fullOps.Add(1)
	}
}

// Close stops the worker goroutines and closes every disk, returning the
// first error encountered. Subsequent I/O fails with ErrClosed.
func (a *DiskArray) Close() error {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	a.closed = true
	workerStop{work: a.work, stop: a.stop}.shutdown()
	var first error
	for _, d := range a.disks {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// IOStats is the PDM accounting of a disk array.
type IOStats struct {
	// ParallelOps counts parallel I/O operations — the PDM cost measure.
	ParallelOps int64
	// ReadOps and WriteOps partition ParallelOps by direction.
	ReadOps, WriteOps int64
	// BlocksMoved counts individual block transfers (≤ D per op).
	BlocksMoved int64
	// WordsMoved = BlocksMoved · B.
	WordsMoved int64
	// FullOps counts operations that used all D disks.
	FullOps int64
}

// Add accumulates other into s.
func (s *IOStats) Add(other IOStats) {
	s.ParallelOps += other.ParallelOps
	s.ReadOps += other.ReadOps
	s.WriteOps += other.WriteOps
	s.BlocksMoved += other.BlocksMoved
	s.WordsMoved += other.WordsMoved
	s.FullOps += other.FullOps
}

// Fullness reports the fraction of disk slots actually used across all
// parallel operations: BlocksMoved / (ParallelOps · D). 1.0 means every
// operation was fully parallel. A non-positive d is meaningless and
// returns 0 rather than dividing by it; an idle array reports 1.
func (s IOStats) Fullness(d int) float64 {
	if d <= 0 {
		return 0
	}
	if s.ParallelOps == 0 {
		return 1
	}
	return float64(s.BlocksMoved) / (float64(s.ParallelOps) * float64(d))
}

// String renders the statistics compactly.
func (s IOStats) String() string {
	return fmt.Sprintf("ops=%d (r=%d w=%d full=%d) blocks=%d words=%d",
		s.ParallelOps, s.ReadOps, s.WriteOps, s.FullOps, s.BlocksMoved, s.WordsMoved)
}
