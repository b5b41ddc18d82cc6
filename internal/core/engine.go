package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cgm"
	"repro/internal/costmodel"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/wordcodec"
)

// batch is what one virtual processor sends to one real processor in one
// superstep: its messages for every virtual processor local to that real
// processor. A final batch carries no messages (the algorithm finished).
type batch[T any] struct {
	srcVP int
	msgs  [][]T // indexed by local VP of the destination processor; nil entries = empty
	final bool
}

// vpInflight is one ring slot's split-phase state: the handles of the
// slot's in-flight reads and writes, plus the operation counts banked for
// its superstep's trace row. Accounting is charged at begin time, so the
// engine snapshots counter deltas as it begins each operation group; the
// deltas are exact because only the processor's own goroutine begins
// operations on its array.
type vpInflight struct {
	reads, writes  pdm.PendingSet
	ctxOps, msgOps int64
	blocks         int64
}

// reset zeroes the banked counts after their trace row is emitted.
func (sl *vpInflight) reset() {
	sl.ctxOps, sl.msgOps, sl.blocks = 0, 0, 0
}

// transport is how a virtual processor's messages reach the inbox their
// destination reads next round — the one thing Algorithms 2 and 3 do
// differently, chosen once at set-up:
//
//   - Algorithm 2 (RunSeq, chans == nil): the single-copy staggered matrix
//     with Observation 2's alternating placement. VP j's outbox is begun as
//     write-behind straight into the slots its own inbox just freed, out
//     of j's ring slot; there is no route phase.
//   - Algorithm 3 (RunPar): batches travel over chans — the real
//     "network", one buffered channel per processor — and the receiving
//     processor lays them out in a route phase after its own VP loop.
//     Incoming batches may arrive before the local inboxes of the same
//     superstep are consumed, so the single-copy alternation does not
//     apply: rects is a ping-pong pair, read by round parity and written
//     at the opposite one. That holds at p = 1 too, which is why RunSeq is
//     not RunPar at p = 1: Observation 2 halves the disk footprint
//     (Result.MaxTracks) and saves the route writes.
//
// The disk map of every processor is its v/p context runs first (VP l's
// occupies striped blocks [l·cb, (l+1)·cb) from track 0), then the matrix
// or the two rects.
type transport[T any] struct {
	matrix layout.Matrix
	rects  [2]layout.Rect
	chans  []chan batch[T]
}

// inboxReqs appends the requests that read local VP l's inbox in round:
// the first live[src] blocks of the slot of every source src.
func (t *transport[T]) inboxReqs(reqs []pdm.BlockReq, round, l int, live []int) []pdm.BlockReq {
	if t.chans == nil {
		return t.matrix.AppendInboxPrefixReqs(reqs, round, l, live)
	}
	return t.rects[round%2].AppendRegionPrefixReqs(reqs, l, live)
}

// roundOut is what one real processor reports from one round; the engine
// merges it into the Result after the barrier.
type roundOut struct {
	done           bool
	err            error
	ctxOps, msgOps int64
	comm           int64
	maxMsg, maxCtx int
	stallNS        int64     // time blocked in Wait (recording only)
	finish         time.Time // when the route phase ended (RunPar, recording only)
}

// proc is one real processor: its disk array, its decode arena and its
// ring of K superstep working sets (local VP l computes out of ring[l mod
// K] while the slots ahead of it prefetch and the slots behind it drain;
// the route phase cycles landed batches through the same K slots). The
// ring is allocated at set-up and keeps its depth for the whole run. A
// proc is owned by the processor's goroutine for a round's duration and
// by the engine's between rounds; rounds are sequenced by the barrier, so
// reuse is race-free.
type proc[T any] struct {
	i     int
	arr   *pdm.DiskArray
	mem   *vpMem[T]
	track obs.TrackID

	ring  []*superstepScratch
	pend  []vpInflight     // per-slot context/inbox reads and write-behind
	route []pdm.PendingSet // per-slot route write-behind (Algorithm 3)

	// The length tables (DESIGN.md §18): how many items each fixed-address
	// image holds, as its last writer left it — the only record of an
	// image's size, from which its next reader derives the live prefix it
	// transfers and decodes. ctxLive[l] is local VP l's context run.
	// msgLive[r%2][l·v+src] is the slot of the message src → local VP l
	// that round r reads; it is written in round r−1 into the other parity
	// than the one that round's own inbox reads consult, so — like the
	// slots themselves under Observation 2 — no entry is overwritten
	// before it is used.
	ctxLive []int
	msgLive [2][]int
	cmp     []pdm.Word // one stripe: the chunk writeContext compares by (encodeCtx)

	// send[l·p+k] is the message container local VP l reuses for its batch
	// to real processor k; a batch sent in round r is consumed by its
	// receiver within round r (every processor drains all v batches before
	// the barrier), so reuse never clobbers an unread batch.
	send [][][]T

	lastOps, lastBlocks int64 // array counters at the last bank
	sent, recv          []int // this round's h-relation, per local VP
	roundOut
}

// inboxLive is the length-table row of the inbox local VP l reads in
// round: one item count per source.
func (e *engine[T]) inboxLive(pr *proc[T], round, l int) []int {
	v := e.cfg.V
	return pr.msgLive[round%2][l*v : (l+1)*v]
}

// ctxBlocks is liveBlocks for a context run of n items.
// emcgm:hotpath
func (e *engine[T]) ctxBlocks(n int) int { return liveBlocks(n, e.codec.Words(), 0, e.cfg.B, e.cb) }

// msgBlocks is liveBlocks for a message slot of n items, guard and all.
// emcgm:hotpath
func (e *engine[T]) msgBlocks(n int) int {
	return liveBlocks(n, e.codec.Words(), msgGuard(e.cfg.B), e.cfg.B, e.bpm)
}

// bank charges the ops begun since the last snapshot to sl's trace row,
// split into context vs message operations.
func (pr *proc[T]) bank(sl *vpInflight, isCtx bool) {
	s := pr.arr.Stats()
	if isCtx {
		sl.ctxOps += s.ParallelOps - pr.lastOps
	} else {
		sl.msgOps += s.ParallelOps - pr.lastOps
	}
	sl.blocks += s.BlocksMoved - pr.lastBlocks
	pr.lastOps, pr.lastBlocks = s.ParallelOps, s.BlocksMoved
}

// drain waits out every in-flight operation before an error return: no
// handle leaks, no worker is left holding a buffer reference. The drained
// errors are deliberately dropped — the caller's error is the one being
// reported.
func (pr *proc[T]) drain() {
	for i := range pr.pend {
		_ = pr.pend[i].reads.Wait()
		_ = pr.pend[i].writes.Wait()
		_ = pr.route[i].Wait()
	}
}

// engine is the one superstep engine behind both machines: shared
// set-up, the per-processor round body (round 0 of which is the input
// distribution), the between-round merge and the result tail. The
// machines differ only in their transport and in how the round body is
// called.
type engine[T any] struct {
	prog  cgm.Program[T]
	codec wordcodec.Codec[T]
	cfg   Config
	rec   *obs.Recorder

	// stallName names every stall span ("stall k=<ring depth>"), so a
	// trace says which depth each residual stall was measured under.
	stallName string

	localV         int // v/p virtual processors per real processor
	maxCtx, maxMsg int // item bounds of a context and of a message slot
	cb, bpm        int // blocks per context run and per message slot (b′)

	procs   []*proc[T]
	tr      transport[T]
	inputs  [][]T // what round 0 hands prog.Init
	cached  [][]T // resident contexts under CacheContexts, nil otherwise
	outputs [][]T
	sizes   *costmodel.Sizes // what the ledger's predictor is told of the data, nil without one
}

// run simulates prog on the machine cfg describes. par selects Algorithm 3
// (RunPar: the round body on p goroutines between barriers); otherwise it
// is Algorithm 2 (RunSeq: cfg.P == 1, the round body called inline).
func run[T any](prog cgm.Program[T], codec wordcodec.Codec[T], cfg Config, inputs [][]T, par bool) (*Result[T], error) {
	v, p := cfg.V, cfg.P
	if len(inputs) != v {
		return nil, fmt.Errorf("core: %d input partitions for V = %d", len(inputs), v)
	}
	n := 0
	for _, in := range inputs {
		n += len(in)
	}
	localV := v / p
	res := &Result[T]{Outputs: make([][]T, v)}
	e := &engine[T]{prog: prog, codec: codec, cfg: cfg, rec: cfg.Recorder,
		localV: localV, inputs: inputs, outputs: res.Outputs}
	e.maxCtx, e.maxMsg = limits(prog, cfg, n)
	e.cb = pdm.BlocksFor(e.maxCtx*codec.Words(), cfg.B)
	e.bpm = pdm.BlocksFor(e.maxMsg*codec.Words(), cfg.B)
	ctxTracks := (localV*e.cb+cfg.D-1)/cfg.D + 1

	// A ring slot is one superstep working set (a context run plus a full
	// message image); resolve the ring depth against M and the cost model.
	// The cap is v, not v/p: the route phase cycles up to v batches
	// through the ring even when a processor has few local VPs.
	slotBlocks := e.cb + v*e.bpm
	k, err := pipeDepth(cfg, v, slotBlocks*cfg.B)
	if err != nil {
		return nil, err
	}

	if par {
		m0, err := layout.NewRect(v, localV, e.bpm, cfg.D, ctxTracks)
		if err != nil {
			return nil, err
		}
		m1, err := layout.NewRect(v, localV, e.bpm, cfg.D, ctxTracks+m0.TotalTracks())
		if err != nil {
			return nil, err
		}
		e.tr.rects = [2]layout.Rect{m0, m1}
		e.tr.chans = make([]chan batch[T], p)
		for i := range e.tr.chans {
			e.tr.chans[i] = make(chan batch[T], v) // each proc receives exactly v batches per round
		}
	} else if e.tr.matrix, err = layout.NewMatrix(v, e.bpm, cfg.D, ctxTracks); err != nil {
		return nil, err
	}
	if cfg.CacheContexts && par && localV == 1 {
		e.cached = make([][]T, p)
	}

	// Registered before the first array is built: a set-up failure at
	// processor i must still close the arrays (workers, descriptors) of
	// processors 0 … i−1.
	defer func() {
		for _, pr := range e.procs {
			_ = pr.arr.Close() // cleanup path; I/O errors already surfaced per op
		}
	}()
	for i := 0; i < p; i++ {
		arr, err := cfg.newArray(i, queueHint(k, slotBlocks, cfg.D))
		if err != nil {
			return nil, err
		}
		pr := &proc[T]{i: i, arr: arr, mem: newVPMem[T](v, cfg.CheckedIO),
			ring: make([]*superstepScratch, k), pend: make([]vpInflight, k), route: make([]pdm.PendingSet, k),
			sent: make([]int, localV), recv: make([]int, localV), ctxLive: make([]int, localV),
			cmp:     make([]pdm.Word, max(cfg.D*cfg.B, codec.Words())),
			msgLive: [2][]int{make([]int, localV*v), make([]int, localV*v)}}
		for s := range pr.ring {
			pr.ring[s] = newSuperstepScratch(e.cb, v, e.bpm, cfg.B)
		}
		if par {
			pr.send = make([][][]T, localV*p)
			for s := range pr.send {
				pr.send[s] = make([][]T, localV)
			}
		}
		e.procs = append(e.procs, pr)
	}

	// RunSeq's one processor is its own metric scope ("core_p0_*"); RunPar
	// has a machine track and scope above the processors'.
	rec := e.rec
	var mtrack obs.TrackID
	metric := "core_p0_"
	if par {
		metric = "core_"
	}
	if rec != nil {
		if par {
			mtrack = rec.Track("machine")
		}
		for _, pr := range e.procs {
			pr.track = rec.Track(fmt.Sprintf("proc %d", pr.i))
			pr.arr.SetRecorder(rec, pr.i)
		}
		e.stallName = fmt.Sprintf("stall k=%d", k)
		rec.Gauge(metric+"pipeline_depth", func() int64 { return int64(k) })
	}
	ledBase := rec.StepCount()
	if cfg.Ledger != nil {
		e.sizes = costmodel.NewSizes(v)
	}
	var stallNS int64

	const maxRounds = 1 << 20
	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, fmt.Errorf("core: program exceeded %d rounds", maxRounds)
		}
		e.sizes.AddRound()
		if !par {
			e.procRound(e.procs[0], round)
		} else {
			rd := rec.Begin(mtrack, "round", "round")
			var wg sync.WaitGroup
			for _, pr := range e.procs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					e.procRound(pr, round)
				}()
			}
			wg.Wait()
			if rec != nil {
				// Barrier wait: the gap between each processor finishing its
				// round work and the slowest processor releasing the barrier.
				for _, pr := range e.procs {
					if !pr.finish.IsZero() {
						rec.SpanSince(pr.track, "barrier wait", "wait", pr.finish)
					}
				}
			}
			rd.End()
		}

		for _, pr := range e.procs {
			if pr.err != nil {
				return nil, pr.err
			}
		}
		done := e.procs[0].done
		for _, pr := range e.procs {
			if pr.done != done {
				return nil, fmt.Errorf("core: real processor %d disagreed on termination at round %d", pr.i, round)
			}
			res.CtxOps += pr.ctxOps
			res.MsgOps += pr.msgOps
			res.CommItems += pr.comm
			stallNS += pr.stallNS
			res.MaxMsgObserved = max(res.MaxMsgObserved, pr.maxMsg)
			res.MaxCtxObserved = max(res.MaxCtxObserved, pr.maxCtx)
			for l := range pr.sent {
				res.MaxH = max(res.MaxH, pr.sent[l], pr.recv[l])
			}
		}
		res.Rounds = round + 1
		if done {
			break
		}
	}

	if rec != nil {
		rec.Counter(metric + "stall_ns").Add(stallNS)
	}
	res.Stall = time.Duration(stallNS)
	res.Depth = k
	res.IOPerProc = make([]pdm.IOStats, p)
	for i, pr := range e.procs {
		res.IOPerProc[i] = pr.arr.Stats()
		res.IO.Add(res.IOPerProc[i])
		res.Syscalls += pdm.SyscallsOf(pr.arr)
		for d := 0; d < pr.arr.D(); d++ {
			res.MaxTracks = max(res.MaxTracks, pr.arr.Disk(d).Tracks())
		}
	}
	res.Supersteps = res.Rounds * localV // v/p compound supersteps per simulated round (Lemma 4)
	if cfg.Ledger != nil {
		cfg.Ledger.AddRun(
			costmodel.Machine{
				Par: par, V: v, P: p, D: cfg.D, B: cfg.B,
				CB: e.cb, BPM: e.bpm, Rounds: res.Rounds, CacheCtx: e.cached != nil,
				Depth: res.Depth, Words: codec.Words(),
			},
			e.sizes,
			rec.StepsSince(ledBase),
			costmodel.RunTotals{
				Rounds:      res.Rounds,
				ParallelOps: res.IO.ParallelOps,
				BlocksMoved: res.IO.BlocksMoved,
				CtxOps:      res.CtxOps,
				MsgOps:      res.MsgOps,
				CommItems:   res.CommItems,
				Syscalls:    res.Syscalls,
				Stall:       res.Stall,
			},
		)
	}
	return res, nil
}

// procRound is one real processor's share of one round: the compound
// superstep of Algorithms 2 and 3, software-pipelined over the
// processor's ring of K slots (local VP l owns slot l mod K). The window
// slides with a prefetch distance of pf = ⌊K/2⌋: while VP l computes out
// of its slot, the contexts and inboxes of VPs l+1 … l+pf are already
// being read, and the writes of VPs back to l−(K−pf) drain as
// write-behind that is only waited for when their slot is about to be
// reused. K = 1 is the synchronous issue order (every operation waited
// before the next phase), K = 2 a ping-pong; deeper rings hide more
// latency and keep ≥ K conflict-free transfers queued per disk for the
// batching workers to coalesce.
//
// Every depth issues the same operation multiset at the same addresses
// with the same cycle packing (the request sequences are cut to the live
// prefixes the length tables record, which do not depend on the depth) —
// only the begin order changes: the reads of VPs l+1 … l+pf are hoisted
// above the writes of VP l. That hoist is
// address-disjoint within a round (context runs are per-VP; under
// Observation 2 VP l's outbox lands in the slots its own inbox freed, and
// Algorithm 3's route writes target the opposite-parity rect from the
// round's reads), no prefetch crosses a round boundary because every
// processor drains its write-behind before it leaves the round, and the
// per-disk work queues are FIFO, so every write→read dependency still
// executes in begin order. With accounting charged at begin time the PDM
// counts are therefore bit-identical at every depth, which
// ops_regression_test.go and TestPipelineDepthEquivalence pin.
//
// Channel sends stay synchronous. Every processor's route phase expects
// exactly v batches per round, so a processor that aborts mid-round must
// still emit the batches its remaining local VPs owe, or its peers block
// forever; before that it waits out everything it has in flight (drain).
// The p = 4 arms of TestRunFaultDrains wedge if those sends go missing.
func (e *engine[T]) procRound(pr *proc[T], round int) {
	chans := e.tr.chans // nil under Algorithm 2: nothing is owed
	rec, localV := e.rec, e.localV
	pr.roundOut = roundOut{}
	clear(pr.sent)
	clear(pr.recv)
	sentVPs := 0
	defer func() {
		if pr.err == nil {
			return
		}
		pr.drain()
		for l := sentVPs; l < localV; l++ {
			for k := range chans {
				chans[k] <- batch[T]{srcVP: pr.i*localV + l, final: true}
			}
		}
	}()
	K := len(pr.ring)

	// Round prologue: burst the window's first pf prefetches in
	// synchronous order, so the per-disk workers see the whole read-ahead
	// at once and can fuse its ascending-track transfers into large
	// vectored calls instead of seeing them trickle in one VP at a time.
	for m := 0; m < K/2 && m < localV; m++ {
		if pr.err = e.beginReads(pr, round, m); pr.err != nil {
			return
		}
	}

	for l := 0; l < localV; l++ {
		sl := &pr.pend[l%K]
		ss := rec.Begin(pr.track, "superstep", "superstep")
		// (a)–(c) Context and inbox in, window slid, local computation.
		vp, outbox, done, err := e.compute(pr, round, l)
		// (d) Deliver the generated messages.
		if err == nil && chans != nil {
			sp := rec.Begin(pr.track, "send", "phase")
			for k := range chans {
				chans[k] <- e.batchTo(pr, l, k, outbox, done)
			}
			sp.End()
			sentVPs++
		} else if err == nil && !done {
			err = e.writeOutbox(pr, round, l, outbox)
		}
		// (e) Context out.
		if err == nil {
			err = e.writeContext(pr, round, l, vp, done)
		}
		if err != nil {
			ss.End()
			pr.err = err
			return
		}
		pr.mem.release()
		pr.ctxOps += sl.ctxOps
		pr.msgOps += sl.msgOps
		if rec != nil {
			ss.EndIO(obs.SuperstepIO{Proc: pr.i, Round: round, VP: pr.i*localV + l, Label: "superstep",
				CtxOps: sl.ctxOps, MsgOps: sl.msgOps, Blocks: sl.blocks})
		}
		sl.reset()
	}

	// Round epilogue: every slot's write-behind must land before the
	// scratches are reused — by the route phase, and by the next round,
	// whose inbox reads depend on this round's message writes.
	for s := range pr.pend {
		if err := e.wait(pr, &pr.pend[s].writes); err != nil {
			pr.err = fmt.Errorf("core: round %d proc %d: write back: %w", round, pr.i, err)
			return
		}
	}
	if chans != nil {
		pr.err = e.route(pr, round)
	}
}

// wait drains a pending set on pr's behalf. Under a Recorder the blocked
// time is charged to pr's stall account and stored as a span in the "wait"
// category; without one it is a plain Wait, because the determinism
// contract forbids wall-clock reads in unrecorded runs.
func (e *engine[T]) wait(pr *proc[T], ps *pdm.PendingSet) error {
	if e.rec == nil {
		return ps.Wait()
	}
	if ps.Len() == 0 {
		return nil
	}
	t0 := time.Now()
	err := ps.Wait()
	pr.stallNS += time.Since(t0).Nanoseconds()
	e.rec.SpanSince(pr.track, e.stallName, "wait", t0)
	return err
}

// beginReads prefetches the live prefix of local VP l's context (unless
// resident) and, after round 0, of each message of its inbox into ring
// slot l mod K, charging the begun ops to that slot's row. The prefixes
// come from the item counts in the length tables, so the whole prefetch is
// one burst with nothing read first to size it. An empty image moves no
// block. That is every context in round 0 — nothing has been written yet,
// the tables say 0 — so round 0 begins no read at all.
func (e *engine[T]) beginReads(pr *proc[T], round, l int) error {
	K, B := len(pr.ring), e.cfg.B
	sl, s := &pr.pend[l%K], pr.ring[l%K]
	pf := e.rec.Begin(pr.track, "prefetch", "prefetch")
	if e.cfg.CheckedIO {
		// What the reads below do not transfer must never decode as the
		// slot's previous tenant.
		fillStale(s.ctxImg)
		fillStale(s.flat)
	}
	if e.cached == nil {
		if err := layout.BeginReadStripedScratch(pr.arr, 0, l*e.cb, s.ctxImg[:e.ctxBlocks(pr.ctxLive[l])*B], &s.lay, &sl.reads); err != nil {
			pf.End()
			return fmt.Errorf("core: round %d vp %d: begin context read: %w", round, pr.i*e.localV+l, err)
		}
		pr.bank(sl, true)
	}
	if round > 0 {
		for src, n := range e.inboxLive(pr, round, l) {
			s.live[src] = e.msgBlocks(n)
		}
		s.reqs = e.tr.inboxReqs(s.reqs[:0], round, l, s.live)
		s.bufs = layout.SplitPrefixesInto(s.bufs[:0], s.flat, B, e.bpm, s.live)
		if _, err := layout.BeginReadFIFOScratch(pr.arr, s.reqs, s.bufs, &s.lay, &sl.reads); err != nil {
			pf.End()
			return fmt.Errorf("core: round %d vp %d: begin inbox read: %w", round, pr.i*e.localV+l, err)
		}
		pr.bank(sl, false)
	}
	pf.End()
	return nil
}

// staleWord is what CheckedIO pours over a ring slot's images before a
// prefetch. Decoded as an item it is garbage, so a read that transfers
// less than its length-table entry says, or is consumed before its Wait,
// turns the program's output wrong instead of quietly handing it the
// slot's previous tenant.
const staleWord pdm.Word = 0xBAD0_57A1_EBAD_57A1

func fillStale(img []pdm.Word) {
	for i := range img {
		img[i] = staleWord
	}
}

// compute brings local VP l into memory and simulates its round: wait
// for the prefetched context and inbox, decode them, slide the window,
// and run the program with the window's reads in flight underneath. In
// round 0 the context-in is not on disk: it is what prog.Init makes of the
// caller's partition, here, on the processor that owns the VP.
func (e *engine[T]) compute(pr *proc[T], round, l int) (vp *cgm.VP[T], outbox [][]T, done bool, err error) {
	K := len(pr.ring)
	pf := K / 2
	j := pr.i*e.localV + l
	sl, s := &pr.pend[l%K], pr.ring[l%K]
	if pf == 0 {
		// K = 1: no read-ahead — the slot's own write-behind must land
		// before its image is reloaded.
		if err := e.wait(pr, &sl.writes); err != nil {
			return nil, nil, false, fmt.Errorf("core: round %d vp %d: write back: %w", round, j, err)
		}
		if err := e.beginReads(pr, round, l); err != nil {
			return nil, nil, false, err
		}
	}
	if err := e.wait(pr, &sl.reads); err != nil {
		return nil, nil, false, fmt.Errorf("core: round %d vp %d: read context/inbox: %w", round, j, err)
	}
	// The items the length tables count are the heads of the prefixes
	// beginReads transferred for them.
	var ctxImg []pdm.Word
	var counts []int
	if e.cached == nil {
		ctxImg = s.ctxImg[:pr.ctxLive[l]*e.codec.Words()]
	}
	if round > 0 {
		counts = e.inboxLive(pr, round, l)
	}
	state, inbox, recv := pr.mem.decode(e.codec, ctxImg, s.flat, counts)
	if e.cached != nil {
		state = e.cached[pr.i]
	}
	pr.recv[l] = recv

	// Slide the window: the slot VP l+pf is about to prefetch into still
	// backs VP l+pf−K's write-behind; it must land before the image is
	// reused.
	if m := l + pf; pf > 0 && m < e.localV {
		if err := e.wait(pr, &pr.pend[m%K].writes); err != nil {
			return nil, nil, false, fmt.Errorf("core: round %d vp %d: write back: %w", round, j+pf-K, err)
		}
		if err := e.beginReads(pr, round, m); err != nil {
			return nil, nil, false, err
		}
	}

	cp := e.rec.Begin(pr.track, "compute", "phase")
	vp = &cgm.VP[T]{ID: j, V: e.cfg.V, State: state}
	if round == 0 {
		e.prog.Init(vp, e.inputs[j])
		if err := checkCtx(len(vp.State), e.maxCtx); err != nil {
			cp.End()
			return nil, nil, false, fmt.Errorf("core: round 0 vp %d: init: %w", j, err)
		}
		pr.maxCtx = max(pr.maxCtx, len(vp.State))
		if e.sizes != nil {
			e.sizes.Ctx[0][j] = len(vp.State)
		}
	}
	outbox, done = e.prog.Round(vp, round, inbox)
	cp.End()
	if outbox != nil && len(outbox) != e.cfg.V {
		return nil, nil, false, fmt.Errorf("core: vp %d round %d returned outbox of length %d, want %d or nil",
			j, round, len(outbox), e.cfg.V)
	}
	if e.sizes != nil && !done {
		row := e.sizes.Msg[round][j*e.cfg.V:]
		for dst, msg := range outbox {
			row[dst] = len(msg)
		}
	}
	if l == 0 {
		pr.done = done
	} else if done != pr.done {
		return nil, nil, false, fmt.Errorf("core: vp %d disagreed on termination at round %d", j, round)
	}
	if done {
		e.outputs[j] = pr.mem.keep(e.prog.Output(vp))
	}
	return vp, outbox, done, nil
}

// encodeMsg encodes msg into the message slot image img and returns its
// live blocks. A message over the slot bound is an error: it is the range
// check on what the length table is told, which nothing else records.
// emcgm:hotpath
func (e *engine[T]) encodeMsg(msg []T, img []pdm.Word) (int, error) {
	if len(msg) > e.maxMsg {
		return 0, fmt.Errorf("core: message of %d items exceeds the slot bound %d items; set Config.MaxMsgItems (or Balanced) accordingly", len(msg), e.maxMsg)
	}
	nb := e.msgBlocks(len(msg))
	encodeLive(e.codec, msg, img, nb, e.cfg.B)
	return nb, nil
}

// writeOutbox is Algorithm 2's delivery: VP j's v messages are encoded
// into its slot's message image and their live prefixes begun as one
// staggered write-behind into the matrix slots its own inbox just freed;
// the length table of the next round's parity records each item count.
func (e *engine[T]) writeOutbox(pr *proc[T], round, j int, outbox [][]T) error {
	K, B, v := len(pr.ring), e.cfg.B, e.cfg.V
	sl, s := &pr.pend[j%K], pr.ring[j%K]
	wb := e.rec.Begin(pr.track, "outbox write", "writeback")
	next := pr.msgLive[(round+1)%2]
	w := e.bpm * B
	for dst := 0; dst < v; dst++ {
		var msg []T
		if outbox != nil {
			msg = outbox[dst]
		}
		nb, err := e.encodeMsg(msg, s.flat[dst*w:(dst+1)*w])
		if err != nil {
			wb.End()
			return fmt.Errorf("vp %d round %d → %d: %w", j, round, dst, err)
		}
		s.live[dst], next[dst*v+j] = nb, len(msg)
		pr.sent[j] += len(msg)
		pr.maxMsg = max(pr.maxMsg, len(msg))
	}
	s.reqs = e.tr.matrix.AppendOutboxPrefixReqs(s.reqs[:0], round, j, s.live)
	s.bufs = layout.SplitPrefixesInto(s.bufs[:0], s.flat, B, e.bpm, s.live)
	if _, err := layout.BeginWriteFIFOScratch(pr.arr, s.reqs, s.bufs, &s.lay, &sl.writes); err != nil {
		wb.End()
		return fmt.Errorf("core: round %d vp %d: begin outbox write: %w", round, j, err)
	}
	wb.End()
	pr.bank(sl, false)
	return nil
}

// batchTo is the send side of Algorithm 3's delivery: what local VP l
// owes real processor k this round — its messages for k's local VPs, kept
// out of the decode arena, or a final marker once the program is done.
func (e *engine[T]) batchTo(pr *proc[T], l, k int, outbox [][]T, done bool) batch[T] {
	b := batch[T]{srcVP: pr.i*e.localV + l, final: done}
	if done {
		return b
	}
	b.msgs = pr.send[l*e.cfg.P+k]
	for dl := range b.msgs {
		b.msgs[dl] = nil
		if outbox != nil {
			msg := outbox[k*e.localV+dl]
			b.msgs[dl] = pr.mem.keep(msg)
			pr.maxMsg = max(pr.maxMsg, len(msg))
			pr.sent[l] += len(msg)
			if k != pr.i {
				pr.comm += int64(len(msg))
			}
		}
	}
	return b
}

// writeContext begins the write-behind of the live prefix of local VP l's
// context out of its ring slot and records its item count in the length
// table, or keeps the context resident under CacheContexts. The terminal
// round's context is read by nobody, so it is only held to the bound μ.
// Nor is a context written whose encoding is, word for word, the one the
// slot read this round: its next reader finds on disk what it needs, and
// the length table stands.
func (e *engine[T]) writeContext(pr *proc[T], round, l int, vp *cgm.VP[T], done bool) error {
	j := pr.i*e.localV + l
	pr.maxCtx = max(pr.maxCtx, len(vp.State))
	if err := checkCtx(len(vp.State), e.maxCtx); err != nil {
		return fmt.Errorf("core: round %d vp %d: write context: %w", round, j, err)
	}
	if e.cached != nil {
		e.cached[pr.i] = pr.mem.keep(vp.State)
		return nil
	}
	if done {
		return nil
	}
	if e.sizes != nil {
		e.sizes.Ctx[round+1][j] = len(vp.State)
	}
	K, B := len(pr.ring), e.cfg.B
	sl, s := &pr.pend[l%K], pr.ring[l%K]
	wb := e.rec.Begin(pr.track, "ctx write", "writeback")
	nb := e.ctxBlocks(len(vp.State))
	same := encodeCtx(e.codec, vp.State, s.ctxImg, pr.cmp, pr.ctxLive[l], nb, B)
	if e.sizes != nil {
		e.sizes.Same[round][j] = same
	}
	if same {
		wb.End()
		return nil
	}
	pr.ctxLive[l] = len(vp.State)
	s.bufs = layout.SplitBlocksInto(s.bufs[:0], s.ctxImg[:nb*B], B)
	if err := layout.BeginWriteStripedScratch(pr.arr, 0, l*e.cb, s.bufs, &s.lay, &sl.writes); err != nil {
		wb.End()
		return fmt.Errorf("core: round %d vp %d: begin context write: %w", round, j, err)
	}
	wb.End()
	pr.bank(sl, true)
	return nil
}

// route is the receive side of Algorithm 3's delivery: take exactly v
// batches (one per virtual processor in the machine) off the processor's
// channel and lay their messages out for the next round, pipelined over
// the ring (each slot's live prefix only, its item count recorded in the
// length table of the next round's parity) — batch n is encoded while up
// to K−1 earlier batches' blocks are still being written, the same burst
// the VP loop gives the coalescing workers, now on the write side.
func (e *engine[T]) route(pr *proc[T], round int) error {
	K := len(pr.ring)
	rt := e.rec.Begin(pr.track, "route batches", "route")
	writeM, next := e.tr.rects[(round+1)%2], pr.msgLive[(round+1)%2]
	B, v := e.cfg.B, e.cfg.V
	w := e.bpm * B
	var row vpInflight
	nb := 0
	for got := 0; got < v; got++ {
		b := <-e.tr.chans[pr.i]
		if b.final {
			continue
		}
		s := pr.ring[nb%K]
		if err := e.wait(pr, &pr.route[nb%K]); err != nil {
			rt.End()
			return fmt.Errorf("core: round %d proc %d: write batch: %w", round, pr.i, err)
		}
		s.reqs = s.reqs[:0]
		live := s.live[:e.localV]
		for dl, msg := range b.msgs {
			blocks, err := e.encodeMsg(msg, s.flat[dl*w:(dl+1)*w])
			if err != nil {
				rt.End()
				return fmt.Errorf("vp %d round %d → %d: %w", b.srcVP, round, pr.i*e.localV+dl, err)
			}
			live[dl], next[dl*v+b.srcVP] = blocks, len(msg)
			s.reqs = writeM.AppendSlotReqs(s.reqs, dl, b.srcVP, blocks)
		}
		s.bufs = layout.SplitPrefixesInto(s.bufs[:0], s.flat, B, e.bpm, live)
		if _, err := layout.BeginWriteFIFOScratch(pr.arr, s.reqs, s.bufs, &s.lay, &pr.route[nb%K]); err != nil {
			rt.End()
			return fmt.Errorf("core: round %d proc %d: write batch from vp %d: %w", round, pr.i, b.srcVP, err)
		}
		pr.bank(&row, false)
		nb++
	}
	// The next round's prologue reuses the scratch images; the route
	// write-behind must land before this processor leaves the barrier.
	for s := range pr.route {
		if err := e.wait(pr, &pr.route[s]); err != nil {
			rt.End()
			return fmt.Errorf("core: round %d proc %d: write batch: %w", round, pr.i, err)
		}
	}
	pr.msgOps += row.msgOps
	if e.rec != nil {
		rt.EndIO(obs.SuperstepIO{Proc: pr.i, Round: round, VP: -1, Label: "route",
			MsgOps: row.msgOps, Blocks: row.blocks})
		pr.finish = time.Now()
	}
	return nil
}
