// Package costmodel reconciles the paper's predicted I/O cost with the
// simulation's measured behaviour. For every compound superstep it
// computes the parallel-I/O count the Theorem 2/3 accounting predicts —
// context swaps at ⌈live blocks/D⌉ striped operations each, plus the
// message-matrix bursts priced symbolically over the staggered layout, each
// at the request count of its busiest disk — and records it side-by-side
// with the measured obs span
// (duration, CtxOps/MsgOps/Blocks) in a per-run Ledger. Predicted counts
// must match measured counts bit-exactly (Reconcile enforces this); the
// pdm.TimeModel then converts both into modelled time so measured wall
// time has a closed-form prediction to drift against.
//
// The engine transfers the live block prefix of every context and message
// image, and a context only when its reader needs it moved (DESIGN.md
// §18), so the prediction is a function of the geometry and of the run's
// Sizes — how many items each context and each message held, round by
// round, and which contexts a round left as it found them. Sizes are the
// predictor's only view of the data:
// it never sees an operation counter and never touches a disk.
// layout.Matrix/Rect block addresses depend on BaseTrack only through the
// Track field, and the packing rule depends only on the Disk fields, so
// the schedule is replayed at BaseTrack 0. With every image
// at its declared maximum and no context left unchanged the prediction is
// the Theorem 2/3 full-image count less the input distribution's write and
// round 0's read of it, and bounds every run from above: a live-prefix
// burst is a subset of the full one, and a maximum of per-disk request
// counts cannot grow when requests are taken away.
package costmodel

import (
	"slices"

	"repro/internal/layout"
	"repro/internal/pdm"
)

// Machine captures the geometry a run was simulated with — everything
// the Theorem 2/3 predictor needs, all derivable from core.Config plus
// the program's limits. CB is blocks per context run (⌈c/B⌉), BPM blocks
// per message slot (b′) — the fixed-address geometry; Words is the item
// width that turns Sizes into live blocks. Rounds is the number of
// compound rounds the run executed; the terminal round writes neither
// contexts nor outboxes (sequential) and lands no batches (parallel), so
// prediction needs it.
type Machine struct {
	Par    bool `json:"par"`
	V      int  `json:"v"`
	P      int  `json:"p"`
	D      int  `json:"d"`
	B      int  `json:"b"`
	CB     int  `json:"cb"`
	BPM    int  `json:"bpm"`
	Rounds int  `json:"rounds"`
	Words  int  `json:"words,omitempty"` // words per encoded item
	// Depth is the pipeline window depth the run used (1 = synchronous
	// schedule). The Theorem 2/3 op-count predictor ignores
	// it — the operation multiset is depth-invariant by construction —
	// but the overlap model (ModelWallPipelined) prices the stall curve
	// from it. Additive and omitempty, so LedgerVersion is unchanged.
	Depth int `json:"depth,omitempty"`
}

// LocalV returns the number of virtual processors per real processor.
func (m Machine) LocalV() int {
	if m.Par && m.P > 0 {
		return m.V / m.P
	}
	return m.V
}

// predictor replays a machine's transfer schedule from a run's sizes.
type predictor struct {
	m       Machine
	sz      *Sizes
	mat     layout.Matrix
	rect    layout.Rect
	perDisk []int64 // requests per disk of the burst being priced
	live    []int   // live blocks per slot of the inbox or outbox being priced
	reqs    []pdm.BlockReq
	valid   bool // the geometry is one layout accepts
}

func newPredictor(m Machine, sz *Sizes) *predictor {
	p := &predictor{m: m, sz: sz, perDisk: make([]int64, m.D), live: make([]int, m.V)}
	var err error
	if m.Par {
		p.rect, err = layout.NewRect(m.V, m.LocalV(), m.BPM, m.D, 0)
	} else {
		p.mat, err = layout.NewMatrix(m.V, m.BPM, m.D, 0)
	}
	p.valid = err == nil && sz != nil
	return p
}

// fifoOps prices a burst under layout's packing rule without performing
// it: issued in per-disk rounds, a burst costs as many parallel I/Os as
// its busiest disk has requests.
func (p *predictor) fifoOps(reqs []pdm.BlockReq) int64 {
	clear(p.perDisk)
	for _, r := range reqs {
		p.perDisk[r.Disk]++
	}
	return slices.Max(p.perDisk)
}

// stripedOps is the cost of a striped transfer of n blocks over d disks.
func stripedOps(n, d int) int64 { return int64((n + d - 1) / d) }

// ctxOps is the cost of moving VP j's context as round r reads it, one
// direction: a striped transfer of the blocks its items reach, and nothing
// for a context that holds nothing.
func (p *predictor) ctxOps(r, j int) int64 {
	return stripedOps(pdm.BlocksFor(p.sz.Ctx[r][j]*p.m.Words, p.m.B), p.m.D)
}

// msgBlocks is the live prefix of the message src sent dst in round r: the
// blocks its items reach, within the slot; an empty message has none.
func (p *predictor) msgBlocks(r, src, dst int) int {
	return min(pdm.BlocksFor(p.sz.Msg[r][src*p.m.V+dst]*p.m.Words, p.m.B), p.m.BPM)
}

// inboxOps prices VP j's inbox read in round ≥ 1: the messages round−1
// sent it, from the sequential machine's matrix or from local VP j mod
// v/p's region of the parallel machine's rectangle. Both ping-pong rects
// share one Disk sequence — BaseTrack never reaches the Disk field — so
// parity does not matter there.
func (p *predictor) inboxOps(round, j int) int64 {
	for src := range p.live {
		p.live[src] = p.msgBlocks(round-1, src, j)
	}
	if p.m.Par {
		p.reqs = p.rect.AppendRegionPrefixReqs(p.reqs[:0], j%p.m.LocalV(), p.live)
	} else {
		p.reqs = p.mat.AppendInboxPrefixReqs(p.reqs[:0], round, j, p.live)
	}
	return p.fifoOps(p.reqs)
}

// outboxOps prices the sequential machine's outbox write of VP j.
func (p *predictor) outboxOps(round, j int) int64 {
	for dst := range p.live {
		p.live[dst] = p.msgBlocks(round, j, dst)
	}
	p.reqs = p.mat.AppendOutboxPrefixReqs(p.reqs[:0], round, j, p.live)
	return p.fifoOps(p.reqs)
}

// batchOps prices the parallel machine's write of what VP src sends in a
// non-terminal round to the VPs of processor proc: one burst over src's
// slot in each of proc's local regions.
func (p *predictor) batchOps(round, src, proc int) int64 {
	lv := p.m.LocalV()
	p.reqs = p.reqs[:0]
	for dl := 0; dl < lv; dl++ {
		p.reqs = p.rect.AppendSlotReqs(p.reqs, dl, src, p.msgBlocks(round, src, proc*lv+dl))
	}
	return p.fifoOps(p.reqs)
}

// routeOps prices one processor's route phase in a non-terminal round: it
// lands only what crosses real processors — one batch from every virtual
// processor of the other processors, each as one burst (batchOps). Its own
// VPs' messages to each other are written at their commits.
func (p *predictor) routeOps(round, proc int) int64 {
	lv := p.m.LocalV()
	total := int64(0)
	for a := 0; a < p.m.V; a++ {
		if a/lv != proc {
			total += p.batchOps(round, a, proc)
		}
	}
	return total
}

// predictRow prices one recorded superstep row, returning its predicted
// context and message parallel I/Os.
func (p *predictor) predictRow(label string, round, vp, proc int) (ctx, msg int64) {
	if !p.valid {
		return 0, 0
	}
	terminal := round == p.m.Rounds-1
	switch label {
	case "superstep":
		// Round 0 computes on what Init left in memory: it reads no context
		// and, there being no copy on disk yet, writes whatever it leaves.
		// A later round writes its context unless it left it as it read it.
		if round > 0 {
			ctx = p.ctxOps(round, vp)
		}
		if !terminal && !(round > 0 && p.sz.Same[round][vp]) {
			ctx += p.ctxOps(round+1, vp)
		}
		if round > 0 {
			msg = p.inboxOps(round, vp)
		}
		switch {
		case terminal:
		case p.m.Par: // the messages to the VPs of its own processor
			msg += p.batchOps(round, vp, vp/p.m.LocalV())
		default:
			msg += p.outboxOps(round, vp)
		}
	case "route":
		if !terminal {
			msg = p.routeOps(round, proc)
		}
	}
	return ctx, msg
}

// Predict prices a whole run of machine m from its sizes alone: every
// virtual processor's superstep in each of m.Rounds rounds and, on the
// parallel machine, every processor's route phase. It is what the
// ledger's rows sum to, without a recorded run to take the rows from.
func Predict(m Machine, sz *Sizes) (ctx, msg int64) {
	p := newPredictor(m, sz)
	for r := 0; r < m.Rounds; r++ {
		for j := 0; j < m.V; j++ {
			c, g := p.predictRow("superstep", r, j, -1)
			ctx, msg = ctx+c, msg+g
		}
		for i := 0; m.Par && i < m.P; i++ {
			_, g := p.predictRow("route", r, -1, i)
			msg += g
		}
	}
	return ctx, msg
}
