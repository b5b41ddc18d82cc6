package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/cgm"
	"repro/internal/costmodel"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/wordcodec"
)

// batch is what one virtual processor sends to another real processor in
// one superstep: its messages for every virtual processor local to that
// real processor. A final batch carries no messages (the algorithm
// finished).
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
//   - Algorithm 3 (RunPar): VP j's messages to the VPs of its own real
//     processor are begun at j's commit, out of j's ring slot, as
//     Algorithm 2's outbox is; only its messages to other real processors
//     travel, as batches over chans — the real "network", one buffered
//     channel per processor — and the receiving processor lays them out in
//     a route phase after its own VP loop (at p = 1 nothing travels).
//     Incoming batches and local writes may land before the inboxes of the
//     same superstep are consumed, so the single-copy alternation does not
//     apply: rects is a ping-pong pair, read by round parity and written
//     at the opposite one. That holds at p = 1 too, which is why RunSeq is
//     not RunPar at p = 1: Observation 2 halves the disk footprint
//     (Result.MaxTracks).
//
// The disk map of every processor is its v/p context runs first (the VP at
// commit position pos owns striped blocks [pos·cb, (pos+1)·cb) from track
// 0, see ctxRun), then the matrix or the two rects.
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

// outboxReqs appends the requests that write, in round, the first live[dl]
// blocks of the message VP j sends to each local VP dl of the processor
// whose disks take it: its slot of the matrix (Algorithm 2, where every VP
// is local), or its slot of every region of the rect the next round reads.
func (t *transport[T]) outboxReqs(reqs []pdm.BlockReq, round, j int, live []int) []pdm.BlockReq {
	if t.chans == nil {
		return t.matrix.AppendOutboxPrefixReqs(reqs, round, j, live)
	}
	m := t.rects[(round+1)%2]
	for dl, n := range live {
		reqs = m.AppendSlotReqs(reqs, dl, j, n)
	}
	return reqs
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

// proc is one real processor: its disk array, its c compute workers and
// its ring of K superstep working sets (the VP at commit position pos
// computes out of ring[pos mod K] while the slots ahead of it prefetch and
// the slots behind it drain; the route phase cycles landed batches through
// the same K slots).
// The ring and the workers are allocated at set-up and keep their number
// for the whole run. A proc is owned by the processor's goroutine for a
// round's duration and by the engine's between rounds; rounds are
// sequenced by the barrier, so reuse is race-free. Within a round a worker
// touches only its own arena and stripe, the ring slot of the VP it was
// handed, and that VP's entries of the tables below; the processor's
// goroutine leaves all three alone until it has collected the VP.
type proc[T any] struct {
	i       int
	arr     *pdm.DiskArray
	workers []*worker[T] // the VP at position pos computes on workers[pos mod c]
	track   obs.TrackID

	// order[pos] is the local VP committed at position pos of every round;
	// lead[pos] says positions pos and pos+1 hold a facing pair of message
	// slots (commitOrder). Both are fixed at set-up.
	order []int
	lead  []bool

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

	// send[l·p+k] is the message container local VP l reuses for its batch
	// to real processor k ≠ i; a batch sent in round r is consumed by its
	// receiver within round r (every processor drains all its batches
	// before the barrier), so reuse never clobbers an unread batch.
	send [][][]T

	lastOps, lastBlocks int64 // array counters at the last bank
	sent, recv          []int // this round's h-relation, per local VP
	roundOut
}

// worker is one of a real processor's c compute workers. It owns a decode
// arena and a compare stripe, and computes one local VP at a time out of
// the ring slot of its position: decode its context and inbox, run
// Init/Round, and encode what the VP leaves — its messages to the
// processor's own VPs into the slot (all of them under Algorithm 2), those
// to other processors into the batches it owes (Algorithm 3), and its
// context into the slot's context image. Everything else — every Begin and
// Wait, length-table write, send, trace row and error check — stays on the
// processor's own goroutine, in commit order (procRound). At c = 1 the one
// worker runs inline on that goroutine; at c > 1 each runs on a goroutine
// resident for the run, handed VPs over start and reporting over fin.
type worker[T any] struct {
	mem   *vpMem[T]
	cmp   []pdm.Word  // one stripe: the chunk encodeCtx compares by
	track obs.TrackID // where its VPs' superstep spans go: the processor's at c = 1
	ss    obs.Span    // the open superstep span of the VP it holds

	start, fin chan struct{} // nil at c = 1
	busy       bool          // handed a VP not yet collected

	// The VP it holds: round, its position pos and the local VP l there are
	// set before the hand-off, the rest by work, read by the processor's
	// goroutine once the VP is collected.
	round   int
	pos, l  int
	vp      *cgm.VP[T]
	outbox  [][]T
	done    bool
	voted   bool // Round returned a well-formed outbox: done is the VP's vote
	initLen int  // the context items Init left (round 0)
	recv    int  // items received
	same    bool // the context encodes to what the slot read: nothing to write
	err     error
}

// hand starts worker w on the VP it was given, whose reads have landed.
func (w *worker[T]) hand() {
	w.busy = true
	w.start <- struct{}{}
}

// collect waits until worker w has computed the VP it was handed, if any.
func (w *worker[T]) collect() {
	if w.busy {
		<-w.fin
		w.busy = false
	}
}

// inboxLive is the length-table row of the inbox local VP l reads in
// round: one item count per source.
func (e *engine[T]) inboxLive(pr *proc[T], round, l int) []int {
	v := e.cfg.V
	return pr.msgLive[round%2][l*v : (l+1)*v]
}

// ctxBlocks is liveBlocks for a context run of n items.
func (e *engine[T]) ctxBlocks(n int) int { return liveBlocks(n, e.codec.Words(), e.cfg.B, e.cb) }

// msgBlocks is liveBlocks for a message slot of n items.
func (e *engine[T]) msgBlocks(n int) int { return liveBlocks(n, e.codec.Words(), e.cfg.B, e.bpm) }

// growCtx makes s's context image hold nb blocks.
func (e *engine[T]) growCtx(s *superstepScratch, nb int) {
	s.ctxImg = grow(s.ctxImg, nb, e.cfg.B, e.cb)
}

// growFlat makes s's flat image hold the live prefixes live of its message
// slots, back to back: slot i starts Σ_{k<i} live[k] blocks in, so the
// writer, which derives live from the messages it encodes, and the reader,
// which derives it from the length table's counts of them, place every
// slot at the same words.
func (e *engine[T]) growFlat(s *superstepScratch, live []int) {
	nb := 0
	for _, n := range live {
		nb += n
	}
	s.flat = grow(s.flat, nb, e.cfg.B, e.cfg.V*e.bpm)
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
	noMsgs  [][]T // v/p empty messages: what an outbox of nil sends each local VP
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
		localV: localV, inputs: inputs, noMsgs: make([][]T, localV), outputs: res.Outputs}
	e.maxCtx, e.maxMsg = limits(prog, cfg, n)
	e.cb = pdm.BlocksFor(e.maxCtx*codec.Words(), cfg.B)
	e.bpm = pdm.BlocksFor(e.maxMsg*codec.Words(), cfg.B)
	ctxTracks := (localV*e.cb+cfg.D-1)/cfg.D + 1

	// A ring slot is one superstep working set (a context run plus a full
	// message image), charged against M at its worst case though it holds
	// only the live prefix of what it meets; resolve the ring depth against
	// M and the cost model. The cap is v, not v/p: the route phase cycles
	// up to v − v/p batches through the ring even when a processor has few
	// local VPs.
	slotBlocks := e.cb + v*e.bpm
	k, err := pipeDepth(cfg, v, slotBlocks*cfg.B)
	if err != nil {
		return nil, err
	}
	c := computeWorkers(cfg, k, localV, slotBlocks*cfg.B)

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
			e.tr.chans[i] = make(chan batch[T], v) // each proc receives v − v/p batches per round
		}
	} else if e.tr.matrix, err = layout.NewMatrix(v, e.bpm, cfg.D, ctxTracks); err != nil {
		return nil, err
	}

	// Registered before the first array is built: a set-up failure at
	// processor i must still close the arrays (workers, descriptors) of
	// processors 0 … i−1.
	defer func() {
		for _, pr := range e.procs {
			_ = pr.arr.Close() // cleanup path; I/O errors already surfaced per op
		}
	}()
	// The resident workers (c > 1) leave with the run, however it ends; by
	// then procRound has collected every VP it handed out.
	var workers sync.WaitGroup
	defer func() {
		for _, pr := range e.procs {
			for _, w := range pr.workers {
				if w.start != nil {
					close(w.start)
				}
			}
		}
		workers.Wait()
	}()
	for i := 0; i < p; i++ {
		arr, err := cfg.newArray(i, queueHint(k, slotBlocks, cfg.D))
		if err != nil {
			return nil, err
		}
		pr := &proc[T]{i: i, arr: arr, workers: make([]*worker[T], c),
			ring: make([]*superstepScratch, k), pend: make([]vpInflight, k), route: make([]pdm.PendingSet, k),
			sent: make([]int, localV), recv: make([]int, localV), ctxLive: make([]int, localV),
			msgLive: [2][]int{make([]int, localV*v), make([]int, localV*v)}}
		pr.order, pr.lead = commitOrder(v, p, cfg.D, i)
		for s := range pr.ring {
			pr.ring[s] = newSuperstepScratch(v)
		}
		if par {
			pr.send = make([][][]T, localV*p)
			for s := range pr.send {
				pr.send[s] = make([][]T, localV)
			}
		}
		e.procs = append(e.procs, pr)
		for n := range pr.workers {
			w := &worker[T]{mem: newVPMem[T](v, e.maxMsg, cfg.CheckedIO), cmp: make([]pdm.Word, max(cfg.D*cfg.B, codec.Words()))}
			pr.workers[n] = w
			if c > 1 {
				w.start, w.fin = make(chan struct{}), make(chan struct{})
				workers.Add(1)
				go func() { // one VP per hand-off until the run closes start
					defer workers.Done()
					for range w.start {
						e.work(pr, w)
						w.fin <- struct{}{}
					}
				}()
			}
		}
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
			for n, w := range pr.workers {
				w.track = pr.track
				if c > 1 {
					w.track = rec.Track(fmt.Sprintf("proc %d worker %d", pr.i, n))
				}
			}
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

	res.Stall = time.Duration(stallNS)
	res.Depth, res.Workers = k, c
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
				CB: e.cb, BPM: e.bpm, Rounds: res.Rounds,
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

// commitOrder is the order in which real processor i of a machine of v
// VPs on p processors and d disks commits its v/p local VPs in every round:
// order[pos] is the local VP at position pos. The message layouts store
// slots in groups of 2d, slot a facing slot a + d on every disk, because
// those two share the disk of every block (layout.slotBlock); both Matrix
// and Rect slots are global source VPs. A group of global VPs wholly local
// to the processor is committed a, a + d, a + 1, a + 1 + d, …, so each pair
// of facing slots is written by VPs committed one after the other, and
// lead marks the first position of each such pair. A group that straddles
// two processors, and the tail after the last full group, keep VP order.
// The table depends on (v, p, d) alone, like the ring depth, so the begin
// order stays a function of the Config.
func commitOrder(v, p, d, i int) (order []int, lead []bool) {
	localV := v / p
	lo := i * localV
	order, lead = make([]int, 0, localV), make([]bool, localV)
	for a := lo; a < lo+localV; {
		if a%(2*d) != 0 || a+2*d > lo+localV {
			order = append(order, a-lo)
			a++
			continue
		}
		for k := range d {
			lead[len(order)] = true
			order = append(order, a+k-lo, a+k+d-lo)
		}
		a += 2 * d
	}
	return order, lead
}

// ctxRun places the context of the VP at commit position pos in the
// processor's striped context region (DESIGN.md §18, "Contexts face each
// other"): the VP owns run pos, cb blocks from block pos·cb, and the live
// prefix of its nb blocks is stored in blocks [start, start+nb) — last
// block first when back. The lead of a facing pair (lead[pos],
// commitOrder) stores its context back to front from the pair boundary
// (pos+1)·cb and its partner front to back from there, so both live
// prefixes grow out of one point and the pair's two context transfers
// are one run of tracks on every disk; every other position stores front
// to back from pos·cb. Either way the prefix is nb consecutive striped
// blocks, ⌈nb/D⌉ parallel I/Os.
func ctxRun(lead []bool, pos, cb, nb int) (start int, back bool) {
	if lead[pos] {
		return (pos+1)*cb - nb, true
	}
	return pos * cb, false
}

// ctxDead returns the striped blocks [start, start+n) of the context run
// of the VP at position pos that a live prefix shrinking from old to nb
// blocks leaves dead. ctxRun anchors every prefix of a position at the
// same point, so they are one range: the far end of the old run.
func ctxDead(lead []bool, pos, cb, old, nb int) (start, n int) {
	start, back := ctxRun(lead, pos, cb, old)
	if !back {
		start += nb
	}
	return start, old - nb
}

// procRound is one real processor's share of one round: the compound
// superstep of Algorithms 2 and 3, software-pipelined over the
// processor's ring of K slots. It walks commit positions, not VP numbers:
// the VP at position pos is pr.order[pos] (commitOrder), owns ring slot
// pos mod K and computes on worker pos mod c, while its context, its
// length-table entries, its batches, its errors and its trace row stay
// keyed by the VP. The window slides with a prefetch distance of pf =
// ⌊K/2⌋: while the VP at pos computes out of its slot, the contexts and
// inboxes of positions pos+1 … pos+pf are already being read, and the
// writes of positions back to pos−(K−pf) drain as write-behind that is
// only waited for when their slot is about to be reused. K = 1 is the
// synchronous issue order (every operation waited before the next phase),
// K = 2 a ping-pong; deeper rings hide more latency and keep ≥ K
// conflict-free transfers queued per disk for the batching workers to
// coalesce.
//
// Partners write back to back. At K ≥ 3 the commit of the first VP of a
// facing pair (lead) makes every check, sends its batches and records its
// lengths, but begins no write; the commit of its partner, at the next
// position, first begins the held VP's outbox and context writes, then its
// own. Each stays its own burst, so only the begin order moves, and the
// two VPs' message prefixes, which meet on every disk (DESIGN.md §18),
// reach each disk's queue in one stretch of writes: one positioning
// serves both. The held VP's superstep span and trace row close once its
// writes are begun. At K ≤ 2 nothing is held, because the slide for
// position pos+1 prefetches into slot pos; at K ≥ 3 it prefetches into
// slot pos+1+pf ≢ pos (mod K), and slot pos is next refilled by the slide
// for position pos+K−pf ≥ pos+2, after the partner's commit.
//
// Every depth issues the same operation multiset at the same addresses
// with the same cycle packing (the request sequences are cut to the live
// prefixes the length tables record, which do not depend on the depth) —
// only the begin order changes: the reads of positions pos+1 … pos+pf are
// hoisted above the writes of position pos, and a held VP's writes W(pos)
// come after the reads R(pos+2) … R(pos+1+pf). Both hoists are
// address-disjoint within a round (context runs are per-VP; under
// Observation 2 a VP's outbox lands in the slots its own inbox freed, and
// Algorithm 3's route writes target the opposite-parity rect from the
// round's reads), no prefetch crosses a round boundary because every
// processor drains its write-behind before it leaves the round, and the
// per-disk work queues are FIFO, so every write→read dependency still
// executes in begin order. With accounting charged at begin time the PDM
// counts are therefore bit-identical at every depth, which
// ops_regression_test.go and TestPipelineDepthEquivalence pin.
//
// Channel sends stay synchronous. Every processor's route phase expects
// exactly v − v/p batches per round, one from every VP of the other
// processors, so a processor that aborts mid-round must still emit the
// batches its remaining local VPs owe, or its peers block forever; before
// that it waits out its workers and everything it has in flight (drain).
// The p = 4 arms of TestRunFaultDrains wedge if those sends go missing.
//
// Up to c VPs compute at once (DESIGN.md §17), position pos on worker pos
// mod c. Position pos+c−1 is handed to its worker as soon as its
// prefetched reads have landed — the slide at pos or an earlier one began
// them, because c−1 ≤ pf — while this goroutine commits the VPs one at a
// time, in commit order: it collects the VP, checks what it left, writes
// its length-table entries, sends its batches and begins its writes (or
// holds them for its partner); only then does the slide for position
// pos+1 begin position pos+1+pf's prefetch, as at c = 1. The begin
// sequence, and with it every address, count and per-disk served order, is
// therefore the same at every c; only when the compute runs moves. A VP's
// errors are reported at its commit, and a failed write at the wait that
// reuses its slot, naming the VP that began it, so a run fails with the
// first failing VP's error in commit order whatever c is.
func (e *engine[T]) procRound(pr *proc[T], round int) {
	chans := e.tr.chans // nil under Algorithm 2: nothing is owed
	rec, localV := e.rec, e.localV
	pr.roundOut = roundOut{}
	clear(pr.sent)
	clear(pr.recv)
	sentVPs := 0 // positions whose batches are sent
	defer func() {
		if pr.err == nil {
			return
		}
		for _, w := range pr.workers {
			w.collect()
		}
		pr.drain()
		for l := 0; l < localV; l++ {
			if slices.Contains(pr.order[:sentVPs], l) {
				continue // committed: its batches are sent
			}
			for k := range chans {
				if k != pr.i {
					chans[k] <- batch[T]{srcVP: pr.i*localV + l, final: true}
				}
			}
		}
	}()
	K, c := len(pr.ring), len(pr.workers)

	// Round prologue: burst the window's first pf prefetches in
	// synchronous order, so the per-disk workers see the whole read-ahead
	// at once and can fuse its ascending-track transfers into large
	// vectored calls instead of seeing them trickle in one VP at a time.
	for m := 0; m < K/2 && m < localV; m++ {
		if pr.err = e.beginReads(pr, round, m); pr.err != nil {
			return
		}
	}

	next := 0                 // the next position to hand to its worker
	held := vpWrites{pos: -1} // a lead VP's writes, begun at its partner's commit
	for pos := 0; pos < localV; pos++ {
		// A VP's superstep span opens as the VP enters the window of c —
		// at c = 1 before any of its I/O — and closes once its writes are
		// begun.
		for m := next; m < min(pos+c, localV); m++ {
			w := pr.workers[m%c]
			w.ss = rec.Begin(w.track, "superstep", "superstep")
		}
		w, l := pr.workers[pos%c], pr.order[pos]
		// (a)–(c) Window slid, context and inbox in, local computation.
		err := e.advance(pr, round, pos, &next)
		if err == nil && held.pos >= 0 {
			err = e.release(pr, round, held)
			held.pos = -1
		}
		if err == nil {
			err = e.commit(pr, w, round, pos)
		}
		// (d) Deliver the generated messages: record those to this
		// processor's VPs, send the rest.
		if err == nil && !w.done {
			e.noteOutbox(pr, round, l, w.outbox)
		}
		if err == nil && chans != nil {
			sp := rec.Begin(w.track, "send", "phase")
			for k := range chans {
				if k != pr.i {
					chans[k] <- e.batchTo(pr, l, k, w.done)
				}
			}
			sp.End()
			sentVPs++
		}
		// (e) Context out; then the writes are begun, or held for the
		// partner's commit.
		var ctx bool
		was := pr.ctxLive[l]
		if err == nil {
			ctx, err = e.noteContext(pr, w, round, l)
		}
		if err == nil {
			vw := vpWrites{pos: pos, msgs: !w.done, ctx: ctx, was: was, ss: w.ss}
			if K >= 3 && pr.lead[pos] {
				held = vw
			} else {
				err = e.release(pr, round, vw)
			}
		}
		if err != nil {
			w.ss.End()
			pr.err = err
			return
		}
		w.mem.release()
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

// vpWrites is what a VP's commit leaves to begin out of the ring slot of
// its position: its outbox (msgs) and its context (ctx), the items of the
// context run it read (was), and the superstep span that closes once they
// are begun.
type vpWrites struct {
	pos       int
	msgs, ctx bool
	was       int
	ss        obs.Span
}

// release begins the writes vw's VP left in its ring slot — its outbox,
// then its context — and closes its superstep span with every op its slot
// banked for it.
func (e *engine[T]) release(pr *proc[T], round int, vw vpWrites) error {
	if vw.msgs {
		if err := e.writeOutbox(pr, round, vw.pos); err != nil {
			return err
		}
	}
	if vw.ctx {
		if err := e.writeContext(pr, round, vw.pos, vw.was); err != nil {
			return err
		}
	}
	sl := &pr.pend[vw.pos%len(pr.ring)]
	pr.ctxOps += sl.ctxOps
	pr.msgOps += sl.msgOps
	if e.rec != nil {
		vw.ss.EndIO(obs.SuperstepIO{Proc: pr.i, Round: round, VP: pr.i*e.localV + pr.order[vw.pos], Label: "superstep",
			CtxOps: sl.ctxOps, MsgOps: sl.msgOps, Blocks: sl.blocks})
	}
	sl.reset()
	return nil
}

// wait drains a pending set on pr's behalf. Under a Recorder the blocked
// time is charged to pr's stall account and stored as a span in the "wait"
// category — unless one of pr's VPs was handed to a worker and is not yet
// collected: then the window hid the wait behind that VP's compute, and it
// is no stall. Without a Recorder it is a plain Wait, because the
// determinism contract forbids wall-clock reads in unrecorded runs.
func (e *engine[T]) wait(pr *proc[T], ps *pdm.PendingSet) error {
	if e.rec == nil {
		return ps.Wait()
	}
	if ps.Len() == 0 {
		return nil
	}
	t0 := time.Now()
	err := ps.Wait()
	if !pr.computing() {
		pr.stallNS += time.Since(t0).Nanoseconds()
		e.rec.SpanSince(pr.track, e.stallName, "wait", t0)
	}
	return err
}

// computing reports whether a worker of pr holds a VP not yet collected.
func (pr *proc[T]) computing() bool {
	for _, w := range pr.workers {
		if w.busy {
			return true
		}
	}
	return false
}

// beginReads prefetches the live prefix of the context of the VP at
// position pos and, after round 0, of each message of its inbox into ring
// slot pos mod K, charging the begun ops to that slot's row. The prefixes
// come from the item counts in the length tables, so the whole prefetch
// is one burst with nothing read first to size it, and the slot's images
// grow to hold it. An empty image moves no block. That is every context
// in round 0 — nothing has been written yet, the tables say 0 — so round
// 0 begins no read at all.
func (e *engine[T]) beginReads(pr *proc[T], round, pos int) error {
	K, l := len(pr.ring), pr.order[pos]
	sl, s := &pr.pend[pos%K], pr.ring[pos%K]
	pf := e.rec.Begin(pr.track, "prefetch", "prefetch")
	e.growCtx(s, e.ctxBlocks(pr.ctxLive[l]))
	if round > 0 {
		for src, n := range e.inboxLive(pr, round, l) {
			s.live[src] = e.msgBlocks(n)
		}
		e.growFlat(s, s.live)
	}
	if e.cfg.CheckedIO {
		// What the reads below do not transfer must never decode as the
		// slot's previous tenant.
		fillStale(s.ctxImg)
		fillStale(s.flat)
	}
	start := e.ctxBufs(pr, s, pos, e.ctxBlocks(pr.ctxLive[l]))
	if err := layout.BeginReadStripedScratch(pr.arr, 0, start, s.bufs, &s.lay, &sl.reads); err != nil {
		pf.End()
		return fmt.Errorf("core: round %d vp %d: begin context read: %w", round, pr.i*e.localV+l, err)
	}
	pr.bank(sl, true)
	if round > 0 {
		s.reqs = e.tr.inboxReqs(s.reqs[:0], round, l, s.live)
		s.bufs = layout.SplitPrefixesInto(s.bufs[:0], s.flat, e.cfg.B, s.live)
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

// advance moves the window to position l and hands the VP of every
// position up to l+c−1 whose reads have landed to its worker: at c = 1
// that is the VP at l alone, run inline. A VP whose reads failed is not
// handed; the failure is its error, reported at its commit.
func (e *engine[T]) advance(pr *proc[T], round, l int, next *int) error {
	K, c := len(pr.ring), len(pr.workers)
	if err := e.slide(pr, round, l+K/2); err != nil {
		return err
	}
	for ; *next < min(l+c, e.localV); *next++ {
		n := *next
		w := pr.workers[n%c]
		w.round, w.pos, w.l, w.voted, w.err = round, n, pr.order[n], false, nil
		if err := e.wait(pr, &pr.pend[n%K].reads); err != nil {
			w.err = fmt.Errorf("core: round %d vp %d: read context/inbox: %w", round, pr.i*e.localV+w.l, err)
			continue
		}
		if c == 1 {
			e.work(pr, w)
		} else {
			w.hand()
		}
	}
	return nil
}

// slide begins the prefetch of position m, pf = ⌊K/2⌋ positions ahead of
// the VP being committed (at K = 1, the VP itself: no read-ahead). Slot m
// mod K still backs the write-behind of position m−K, which must land
// before the image is reused; a failed write names the VP there.
func (e *engine[T]) slide(pr *proc[T], round, m int) error {
	if m >= e.localV {
		return nil
	}
	K := len(pr.ring)
	if err := e.wait(pr, &pr.pend[m%K].writes); err != nil {
		return fmt.Errorf("core: round %d vp %d: write back: %w", round, pr.i*e.localV+pr.order[m-K], err)
	}
	return e.beginReads(pr, round, m)
}

// work simulates the round of the VP worker w holds, out of its ring slot,
// whose reads have landed: decode the context and inbox into w's arena,
// run the program with the window's reads in flight underneath (the same
// arena lends it scratch), and encode what the VP leaves back into the
// slot (and, under Algorithm 3, its messages to other processors into its
// batches) for procRound to write. In round 0 the context-in is not on
// disk: it is what prog.Init makes of the caller's partition, here, on
// the processor that owns the VP. What can fail here is left in w.err for
// procRound to report in commit order; a context over μ is left for
// noteContext to reject. So is a panic of the program or the codec —
// in Init, Round, Output or an encode or decode — as cgm.Run returns one:
// the processor then aborts the round as for a failed read, draining what
// it has in flight and sending the batches its peers wait for.
func (e *engine[T]) work(pr *proc[T], w *worker[T]) {
	round, l, v := w.round, w.l, e.cfg.V
	j := pr.i*e.localV + l
	defer func() {
		if r := recover(); r != nil {
			w.err = fmt.Errorf("core: round %d vp %d: program panicked: %v", round, j, r)
		}
	}()
	s := pr.ring[w.pos%len(pr.ring)]
	// The items the length tables count are the heads of the prefixes
	// beginReads transferred for them, the inbox's at the offsets it derived
	// from the same counts (s.live still holds their live blocks).
	ctxImg := s.ctxImg[:pr.ctxLive[l]*e.codec.Words()]
	var counts []int
	if round > 0 {
		counts = e.inboxLive(pr, round, l)
	}
	state, inbox, recv := w.mem.decode(e.codec, ctxImg, s.flat, e.cfg.B, s.live, counts)
	w.recv = recv

	cp := e.rec.Begin(w.track, "compute", "phase")
	vp := cgm.NewVP(j, v, state, w.mem.lend)
	if round == 0 {
		e.prog.Init(vp, e.inputs[j])
		w.initLen = len(vp.State)
		if err := checkCtx(len(vp.State), e.maxCtx); err != nil {
			cp.End()
			w.err = fmt.Errorf("core: round 0 vp %d: init: %w", j, err)
			return
		}
	}
	outbox, done := e.prog.Round(vp, round, inbox)
	cp.End()
	if outbox != nil && len(outbox) != v {
		w.err = fmt.Errorf("core: vp %d round %d returned outbox of length %d, want %d or nil", j, round, len(outbox), v)
		return
	}
	w.vp, w.outbox, w.done, w.voted = vp, outbox, done, true
	if done {
		e.outputs[j] = w.mem.keep(e.prog.Output(vp))
	} else {
		if e.tr.chans != nil {
			e.keepBatches(pr, w)
		}
		w.err = e.encodeMsgs(pr, s, round, j, e.localMsgs(pr, outbox))
	}
	// Nobody reads the terminal round's context.
	if w.err != nil || done || len(vp.State) > e.maxCtx {
		return
	}
	e.growCtx(s, e.ctxBlocks(len(vp.State)))
	w.same = encodeCtx(e.codec, vp.State, s.ctxImg, w.cmp, pr.ctxLive[l], e.ctxBlocks(len(vp.State)), e.cfg.B)
}

// commit collects the VP at position pos from its worker and makes the
// checks that need it, in the order the synchronous schedule meets them: a
// failed read, an Init over μ or a malformed outbox; then the VP's vote on
// termination against the first position's; then a message over its
// slot. It records what the ledger's predictor is told of the VP's sizes.
func (e *engine[T]) commit(pr *proc[T], w *worker[T], round, pos int) error {
	w.collect()
	l := w.l
	j := pr.i*e.localV + l
	if !w.voted {
		return w.err
	}
	if pos == 0 {
		pr.done = w.done
	} else if w.done != pr.done {
		return fmt.Errorf("core: vp %d disagreed on termination at round %d", j, round)
	}
	if w.err != nil {
		return w.err
	}
	pr.recv[l] = w.recv
	if round == 0 {
		pr.maxCtx = max(pr.maxCtx, w.initLen)
		if e.sizes != nil {
			e.sizes.Ctx[0][j] = w.initLen
		}
	}
	if e.sizes != nil && !w.done {
		row := e.sizes.Msg[round][j*e.cfg.V:]
		for dst, msg := range w.outbox {
			row[dst] = len(msg)
		}
	}
	return nil
}

// localMsgs is the part of an outbox whose writes a VP's commit begins on
// its own processor's disks: its messages to that processor's v/p VPs,
// indexed by local VP (the whole outbox under Algorithm 2); v/p empty
// ones for an outbox that sends nothing.
func (e *engine[T]) localMsgs(pr *proc[T], outbox [][]T) [][]T {
	if outbox == nil {
		return e.noMsgs
	}
	lo := pr.i * e.localV
	return outbox[lo : lo+e.localV]
}

// encodeMsgs encodes the messages VP src sends in round to this
// processor's VPs — msgs[dl] to local VP dl — into
// s's flat image, their live prefixes back to back (growFlat), and leaves
// each one's live blocks in s.live. It is a worker's half of its
// VP's delivery, and the route phase's for a batch from another processor.
// A message over the slot bound is an error: it is the range check on what
// the length table is told, which nothing else records.
func (e *engine[T]) encodeMsgs(pr *proc[T], s *superstepScratch, round, src int, msgs [][]T) error {
	B, live := e.cfg.B, s.live[:len(msgs)]
	for dl, msg := range msgs {
		live[dl] = e.msgBlocks(len(msg))
	}
	e.growFlat(s, live)
	at := 0
	for dl, msg := range msgs {
		if len(msg) > e.maxMsg {
			return fmt.Errorf("vp %d round %d → %d: core: message of %d items exceeds the slot bound %d items; set Config.MaxMsgItems (or Balanced) accordingly",
				src, round, pr.i*e.localV+dl, len(msg), e.maxMsg)
		}
		encodeLive(e.codec, msg, s.flat[at:at+live[dl]*B], live[dl], B)
		at += live[dl] * B
	}
	return nil
}

// noteMsgs records the item counts of the messages VP src sends in round
// to this processor's VPs — msgs[dl] to local VP dl — in the length table
// of the next round's parity.
func (e *engine[T]) noteMsgs(pr *proc[T], round, src int, msgs [][]T) {
	v, next := e.cfg.V, pr.msgLive[(round+1)%2]
	for dl, msg := range msgs {
		next[dl*v+src] = len(msg)
	}
}

// beginMsgs begins, as one burst into ps, the writes of the messages to
// this processor's VPs that VP src sends in round and encodeMsgs left in
// s: the live prefix of each, into its slot of the next round's inboxes.
func (e *engine[T]) beginMsgs(pr *proc[T], s *superstepScratch, round, src int, ps *pdm.PendingSet) error {
	live := s.live[:e.localV]
	s.reqs = e.tr.outboxReqs(s.reqs[:0], round, src, live)
	s.bufs = layout.SplitPrefixesInto(s.bufs[:0], s.flat, e.cfg.B, live)
	_, err := layout.BeginWriteFIFOScratch(pr.arr, s.reqs, s.bufs, &s.lay, ps)
	return err
}

// noteOutbox is the commit's bookkeeping for local VP l's delivery to this
// processor's VPs — its whole outbox under Algorithm 2: their item counts
// go into the length table, their sizes into the round's h-relation.
func (e *engine[T]) noteOutbox(pr *proc[T], round, l int, outbox [][]T) {
	msgs := e.localMsgs(pr, outbox)
	e.noteMsgs(pr, round, pr.i*e.localV+l, msgs)
	for _, msg := range msgs {
		pr.sent[l] += len(msg)
		pr.maxMsg = max(pr.maxMsg, len(msg))
	}
}

// writeOutbox begins the delivery of the VP at position pos to this
// processor's VPs: the messages its worker encoded into the position's
// ring slot, as one write-behind burst into the slots the next round reads
// (under Algorithm 2 the matrix slots its own inbox just freed).
func (e *engine[T]) writeOutbox(pr *proc[T], round, pos int) error {
	K, j := len(pr.ring), pr.i*e.localV+pr.order[pos]
	sl, s := &pr.pend[pos%K], pr.ring[pos%K]
	wb := e.rec.Begin(pr.track, "outbox write", "writeback")
	if err := e.beginMsgs(pr, s, round, j, &sl.writes); err != nil {
		wb.End()
		return fmt.Errorf("core: round %d vp %d: begin outbox write: %w", round, j, err)
	}
	wb.End()
	pr.bank(sl, false)
	return nil
}

// keepBatches is the worker's half of Algorithm 3's delivery to other
// processors: it fills the containers local VP w.l sends to each real
// processor k ≠ i with its messages for that processor's VPs, copied out
// of w's arena where they still point into it, because a batch outlives
// the superstep.
func (e *engine[T]) keepBatches(pr *proc[T], w *worker[T]) {
	for k := 0; k < e.cfg.P; k++ {
		if k == pr.i {
			continue
		}
		msgs := pr.send[w.l*e.cfg.P+k]
		for dl := range msgs {
			msgs[dl] = nil
			if w.outbox != nil {
				msgs[dl] = w.mem.keep(w.outbox[k*e.localV+dl])
			}
		}
	}
}

// batchTo is the send side of Algorithm 3's delivery: what local VP l owes
// real processor k ≠ i this round — the messages for k's local VPs its
// worker kept, or a final marker once the program is done.
func (e *engine[T]) batchTo(pr *proc[T], l, k int, done bool) batch[T] {
	b := batch[T]{srcVP: pr.i*e.localV + l, final: done}
	if done {
		return b
	}
	b.msgs = pr.send[l*e.cfg.P+k]
	for _, msg := range b.msgs {
		pr.maxMsg = max(pr.maxMsg, len(msg))
		pr.sent[l] += len(msg)
		pr.comm += int64(len(msg))
	}
	return b
}

// noteContext is the commit's half of local VP l's context out: it holds
// the context to the bound μ, records its size for the ledger's predictor
// and its item count in the length table, and reports whether it must be
// written. The terminal round's context is not written: nobody reads it.
// Nor is a context written whose encoding is, word for word, the one the
// slot read this round: its next reader finds on disk what it needs, and
// the length table stands.
func (e *engine[T]) noteContext(pr *proc[T], w *worker[T], round, l int) (bool, error) {
	j := pr.i*e.localV + l
	n := len(w.vp.State)
	pr.maxCtx = max(pr.maxCtx, n)
	if err := checkCtx(n, e.maxCtx); err != nil {
		return false, fmt.Errorf("core: round %d vp %d: write context: %w", round, j, err)
	}
	if w.done {
		return false, nil
	}
	if e.sizes != nil {
		e.sizes.Ctx[round+1][j] = n
		e.sizes.Same[round][j] = w.same
	}
	if w.same {
		return false, nil
	}
	pr.ctxLive[l] = n
	return true, nil
}

// writeContext begins the write-behind of the live prefix of the context
// of the VP at position pos, which its worker encoded into the position's
// ring slot and whose item count noteContext recorded. A context that
// shrank out of blocks of the run of was items it read gives them back
// (pdm.DiskArray.Discard): no transfer of them is in flight, since that
// read was waited before the VP computed.
func (e *engine[T]) writeContext(pr *proc[T], round, pos, was int) error {
	K, l := len(pr.ring), pr.order[pos]
	sl, s := &pr.pend[pos%K], pr.ring[pos%K]
	wb := e.rec.Begin(pr.track, "ctx write", "writeback")
	start := e.ctxBufs(pr, s, pos, e.ctxBlocks(pr.ctxLive[l]))
	if err := layout.BeginWriteStripedScratch(pr.arr, 0, start, s.bufs, &s.lay, &sl.writes); err != nil {
		wb.End()
		return fmt.Errorf("core: round %d vp %d: begin context write: %w", round, pr.i*e.localV+l, err)
	}
	if old, nb := e.ctxBlocks(was), len(s.bufs); old > nb {
		dead, n := ctxDead(pr.lead, pos, e.cb, old, nb)
		layout.DiscardStriped(pr.arr, 0, dead, n, &s.lay)
	}
	wb.End()
	pr.bank(sl, true)
	return nil
}

// ctxBufs splits the live prefix of nb blocks of s's context image into
// s.bufs in the order ctxRun stores them for the VP at position pos, and
// returns the striped block the first of them goes to: the one address
// rule of beginReads and writeContext.
func (e *engine[T]) ctxBufs(pr *proc[T], s *superstepScratch, pos, nb int) int {
	s.bufs = layout.SplitBlocksInto(s.bufs[:0], s.ctxImg[:nb*e.cfg.B], e.cfg.B)
	start, back := ctxRun(pr.lead, pos, e.cb, nb)
	if back {
		slices.Reverse(s.bufs)
	}
	return start
}

// route is the receive side of Algorithm 3's delivery to other
// processors: take exactly v − v/p batches (one per virtual processor on
// another real processor) off the processor's channel and lay their
// messages out for the next round, pipelined over the ring (each slot's
// live prefix only, its item count recorded in the length table of the
// next round's parity) — batch n is encoded while up to K−1 earlier
// batches' blocks are still being written, the same burst the VP loop
// gives the coalescing workers, now on the write side. At p = 1 there is
// nothing to take.
func (e *engine[T]) route(pr *proc[T], round int) error {
	K := len(pr.ring)
	rt := e.rec.Begin(pr.track, "route batches", "route")
	var row vpInflight
	nb := 0
	for got := 0; got < e.cfg.V-e.localV; got++ {
		b := <-e.tr.chans[pr.i]
		if b.final {
			continue
		}
		s := pr.ring[nb%K]
		if err := e.wait(pr, &pr.route[nb%K]); err != nil {
			rt.End()
			return fmt.Errorf("core: round %d proc %d: write batch: %w", round, pr.i, err)
		}
		if err := e.encodeMsgs(pr, s, round, b.srcVP, b.msgs); err != nil {
			rt.End()
			return err
		}
		e.noteMsgs(pr, round, b.srcVP, b.msgs)
		if err := e.beginMsgs(pr, s, round, b.srcVP, &pr.route[nb%K]); err != nil {
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
