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
	rec   *obs.Recorder
	track obs.TrackID
	fit   *obs.FitAcc // (runs, tracks, latency) calibration moments
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

// diskWorker services one disk's transfers for the lifetime of the array
// and marks done when it leaves. It references only its disk, channel,
// observability slot and done — never the DiskArray — so an abandoned
// array stays collectable and its cleanup can stop the workers. With a
// recorder attached, each service is timed into the disk's calibration fit
// and emitted as a span on the disk's track.
//
// When the disk implements BatchDisk (bat non-nil), every service is one
// batch call: after taking one op the worker drains whatever else is
// already queued — without blocking, so a sparse queue makes a batch of
// one track — and serves what it collected in one ReadTracks/WriteTracks.
// Collection cuts at MaxBatchTracks, on a direction change, or on a
// duplicate track: the per-disk FIFO is the ordering guarantee for
// write→read dependencies, and a batch only reorders same-direction
// transfers on distinct tracks, which commute. The cut-off op is carried
// into the next batch, never reordered past it. Deep queues only build up
// under the split-phase pipelined drivers; synchronous callers wait out
// each operation, so their batches stay at one track. A disk without
// BatchDisk is served one transfer at a time (serveOp).
func diskWorker(d Disk, ch <-chan diskOp, ob *diskObs, bat *workerBatch, done *sync.WaitGroup) {
	defer done.Done()
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

// start returns the time a service begins, or the zero time when no
// recorder is attached: the unrecorded path reads no clock.
func (ob *diskObs) start() time.Time {
	if ob.rec == nil {
		return time.Time{}
	}
	return time.Now()
}

// served records a service of the given ascending tracks that began at
// t0: the (runs, tracks, latency) sample the TimeModel calibration fit
// regresses on, and a span — read/write for one track, readv/writev for a
// coalesced batch. Without a recorder it does nothing.
func (ob *diskObs) served(t0 time.Time, read bool, tracks []int) {
	if ob.rec == nil {
		return
	}
	lat := int64(time.Since(t0))
	runs := 1
	for i := 1; i < len(tracks); i++ {
		if tracks[i] != tracks[i-1]+1 {
			runs++
		}
	}
	name := "write"
	switch {
	case read && len(tracks) > 1:
		name = "readv"
	case read:
		name = "read"
	case len(tracks) > 1:
		name = "writev"
	}
	ob.fit.Observe(runs, len(tracks), lat)
	ob.rec.SpanSince(ob.track, name, "disk", t0)
}

// serveOp services one transfer on a disk without BatchDisk and signals
// its Pending.
func serveOp(d Disk, op diskOp, ob *diskObs) {
	transfer := d.WriteTrack
	if op.read {
		transfer = d.ReadTrack
	}
	t0 := ob.start()
	err := transfer(op.track, op.buf)
	ob.served(t0, op.read, []int{op.track})
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

// serveBatch services a run of same-direction transfers — one track or
// many — as one BatchDisk call: the ops are insertion-sorted by track
// (the batch contract wants strictly ascending tracks; same-direction
// distinct-track transfers commute, so sorting is safe), served in one
// call, and their Pendings signalled individually. If a batch of several
// tracks fails, each transfer is re-issued as a one-track batch so every
// Pending sees its own transfer's error, exactly as without coalescing.
func serveBatch(bd BatchDisk, ops []diskOp, ob *diskObs, bat *workerBatch) {
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
	transfer := bd.WriteTracks
	if read {
		transfer = bd.ReadTracks
	}
	t0 := ob.start()
	err := transfer(tracks, bufs)
	ob.served(t0, read, tracks)
	for i := range ops {
		if err != nil && len(ops) > 1 {
			// A batch may fail part-way, or for a reason only one track
			// triggers: the re-issue gives each Pending its own error.
			*ops[i].err = transfer(tracks[i:i+1], bufs[i:i+1])
		} else {
			*ops[i].err = err
		}
		ops[i].wg.Done()
		// Drop buffer references from the long-lived scratch so served
		// blocks stay collectable between batches.
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

	// workers counts the disk workers still running; Close waits for it
	// before it closes the disks.
	workers *sync.WaitGroup

	// discard holds the disks that can discard, nil when none can (an
	// array of FileDisks): Discard then calls no disk.
	discard *discardSet

	// check, when non-nil, validates every operation against the layout
	// discipline before dispatch (see EnableChecked). nil in production:
	// the hot path pays one nil check, like the recorder.
	check *checker

	stats ioCounters

	// Observability: each disk worker's recorder slot (a nil recorder
	// when recording is disabled — the worker then pays one nil check per
	// service).
	diskObs []*diskObs
}

// discardSet is what DiskArray.Discard needs: disks[i] is disk i as a
// Discarder, nil where it is none, and tracks is the per-disk scratch of
// one call, guarded by the array's opMu.
type discardSet struct {
	disks  []Discarder
	tracks []int
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
		workers: new(sync.WaitGroup),
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
		a.workers.Add(1)
		go diskWorker(d, ch, a.diskObs[i], bat, a.workers)
	}
	for i, d := range disks {
		if dd, ok := d.(Discarder); ok {
			if a.discard == nil {
				a.discard = &discardSet{disks: make([]Discarder, len(disks))}
			}
			a.discard.disks[i] = dd
		}
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
// track and calibration fit per disk (named after the owning real
// processor proc), and gauges mirroring the atomic I/O counters, which
// the Chrome trace renders as counter events. A nil rec detaches.
// Serialised against I/O by opMu, so it must not be called from inside a
// transfer; attach before the run starts.
//
// Recording never changes the counted operations — the PDM accounting
// stays bit-identical with and without a recorder.
func (a *DiskArray) SetRecorder(rec *obs.Recorder, proc int) {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	if rec == nil {
		for _, ob := range a.diskObs {
			*ob = diskObs{}
		}
		return
	}
	for i, ob := range a.diskObs {
		ob.rec = rec
		ob.track = rec.Track(fmt.Sprintf("p%d disk %d", proc, i))
		ob.fit = rec.Fit(fmt.Sprintf("pdm_p%d_disk%d", proc, i))
		if sc, ok := a.disks[i].(SyscallCounter); ok {
			rec.Gauge(fmt.Sprintf("pdm_p%d_disk%d_syscalls", proc, i), sc.Syscalls)
		}
	}
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

// Discard declares the blocks reqs address dead: each disk that is a
// Discarder drops its tracks among them, and under checked mode the blocks
// leave the written set, so a later read of one is ErrCheckUninitRead.
// It is no parallel I/O: nothing is transferred or counted, and reqs may
// address a disk any number of times. The caller guarantees that no
// transfer of those blocks is in flight. When no disk of the array can
// discard, it calls no disk and allocates nothing; requests for disks
// outside the array are ignored.
func (a *DiskArray) Discard(reqs []BlockReq) {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	if a.check != nil {
		a.check.discard(reqs)
	}
	if a.closed || a.discard == nil {
		return
	}
	ds := a.discard
	for i, dd := range ds.disks {
		if dd == nil {
			continue
		}
		ts := ds.tracks[:0]
		for _, r := range reqs {
			if r.Disk == i {
				ts = append(ts, r.Track)
			}
		}
		ds.tracks = ts
		if len(ts) > 0 {
			dd.Discard(ts)
		}
	}
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

// Close stops the worker goroutines, waits until they have served every
// transfer already queued and left, and only then closes every disk,
// returning the first error encountered: no transfer runs against a closed
// disk, no worker outlives Close, and a Pending begun before Close returns
// its transfer's own result. Subsequent I/O fails with ErrClosed.
func (a *DiskArray) Close() error {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	a.closed = true
	workerStop{work: a.work, stop: a.stop}.shutdown()
	a.workers.Wait()
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
