package layout

import (
	"fmt"

	"repro/internal/pdm"
)

// Matrix is the staggered message matrix of the paper's Figure 2 and
// appendix Step (d): a v×v grid of fixed-size message slots laid out on D
// disks so that both per-destination inbox reads and per-source outbox
// writes proceed with fully parallel I/O.
//
// The matrix is organised in v regions (track bands). Region r starts at
// track BaseTrack + r·RegionTracks(); block q of slot a of region r is on
// disk (r + a + q) mod D. Consecutive slots of a region, and the same slot
// of consecutive regions, therefore start on consecutive disks, which is
// what lets one parallel I/O touch the first blocks of D of them (the
// shaded rectangles of Figure 2) — whole slots or live prefixes alike.
// Within its disk a block's track is chosen so that live prefixes meet:
// slots (a, a + D) face each other across a shared midpoint on every disk,
// so a region read with prefixes of D blocks or more costs each disk one
// run of tracks per pair of slots, not one per slot (see slotBlock).
//
// Which (source,destination) message occupies which slot alternates by
// superstep parity per Observation 2, so a single copy of the matrix
// suffices (see Place):
//
//   - phase 0: message i→j lives in region j, slot i. VP j reads its inbox
//     as region j — a consecutive read — and then writes its outgoing
//     message j→k into region j, slot k (the slots it just freed) — a
//     consecutive write.
//   - phase 1: message i→j lives in region i, slot j. VP j reads its inbox
//     as slot j of every region — a staggered read — and writes message
//     j→k into region k, slot j (again just-freed slots) — a staggered
//     write.
//
// In both phases the slots written by VP j are exactly the slots VP j's
// own inbox occupied, so processing VPs in any order never clobbers an
// unread message.
type Matrix struct {
	V         int // virtual processors (matrix is V×V slots)
	BPM       int // blocks per message slot (b′ in the paper)
	D         int // disks
	BaseTrack int // first track of the matrix
}

// NewMatrix validates and returns the matrix geometry.
func NewMatrix(v, bpm, d, baseTrack int) (Matrix, error) {
	if v < 1 || bpm < 1 || d < 1 || baseTrack < 0 {
		return Matrix{}, fmt.Errorf("layout: invalid matrix geometry v=%d bpm=%d d=%d base=%d", v, bpm, d, baseTrack)
	}
	return Matrix{V: v, BPM: bpm, D: d, BaseTrack: baseTrack}, nil
}

// regionTracks is the number of tracks a region of the given number of
// slots occupies on each disk: slots·⌈(bpm−1)/d⌉ + ⌈slots/d⌉ + 1, the
// footprint of slots padded to a pitch ≡ 1 (mod d) blocks, kept so that
// no region's base track moves. It covers slotBlock's busiest disk, which
// holds slots·⌊bpm/d⌋ tracks plus one for each slot with a block on it
// past the last full stripe.
func regionTracks(slots, bpm, d int) int {
	return slots*((bpm+d-2)/d) + (slots+d-1)/d + 1
}

// slotBlock is the address of block q of slot a of a region of the given
// number of slots, with number r and first track t.
//
// The block's disk is (r + a + q) mod d: consecutive slots, and one slot
// of consecutive regions, begin on consecutive disks, and the blocks of a
// slot are striped round-robin from there. That is all the packing rule
// reads (see packed).
//
// Its track is chosen per disk so that live prefixes meet. With bpm =
// s·d + rem, a slot holds s + [q₀ < rem] tracks on a disk where its first
// block is q₀, and the j-th of them holds block q₀ + j·d; no track is
// left between slots. Slots go in pairs (a, a + d), whose first blocks
// share a disk, within groups of 2d slots, which fill 2·bpm tracks of
// every disk. The first slot of a pair is stored back to front and the
// second front to back, so on every disk both prefixes grow outward from
// the pair's midpoint and a pair's live blocks are one run of tracks. The
// slots after the last full group are stored front to back in slot order.
// Either way the blocks of one slot on one disk are a single run.
func slotBlock(r, t, a, q, slots, bpm, d int) pdm.BlockReq {
	s, rem := bpm/d, bpm%d
	q0, j := q%d, q/d
	// before(n) is the number of tracks on this disk held by the n slots
	// below a slot — by the first slots of the n pairs below a pair: the
	// k-th of them has its first block here at (q0 + k) mod d, and a slot
	// whose first block is x holds s + [x < rem].
	before := func(n int) int { return n*s + below(q0+1+n, rem, d) - below(q0+1, rem, d) }
	size := s
	if q0 < rem {
		size++
	}
	group, i := a/(2*d), a%(2*d)
	t += group * 2 * bpm
	switch {
	case (group+1)*2*d > slots: // the tail after the last full group
		t += before(i) + j
	case i < d: // first of its pair: back to front
		t += 2*before(i) + size - 1 - j
	default: // second of its pair, after the first
		t += 2*before(i-d) + size + j
	}
	return pdm.BlockReq{Disk: (r + a + q) % d, Track: t}
}

// below is the number of x in [0, n) with x mod d < rem.
func below(n, rem, d int) int {
	return n/d*rem + min(n%d, rem)
}

// RegionTracks returns the number of tracks occupied by one region.
func (m Matrix) RegionTracks() int { return regionTracks(m.V, m.BPM, m.D) }

// TotalTracks returns the number of tracks occupied by the whole matrix.
func (m Matrix) TotalTracks() int { return m.V * m.RegionTracks() }

// SlotBlock returns the disk address of block q (0 ≤ q < BPM) of slot a
// within region r.
func (m Matrix) SlotBlock(r, a, q int) pdm.BlockReq {
	if r < 0 || r >= m.V || a < 0 || a >= m.V || q < 0 || q >= m.BPM {
		panic(fmt.Sprintf("layout: slot block (r=%d a=%d q=%d) out of range", r, a, q))
	}
	return slotBlock(r, m.BaseTrack+r*m.RegionTracks(), a, q, m.V, m.BPM, m.D)
}

// Place returns the (region, slot) holding the message src→dst in the
// given phase (superstep parity), per Observation 2's alternation.
func (m Matrix) Place(phase, src, dst int) (region, slot int) {
	if phase%2 == 0 {
		return dst, src
	}
	return src, dst
}

// AppendInboxReqs appends to reqs the FIFO block-request sequence that
// reads VP dst's entire inbox (V messages of BPM blocks each) in the given
// phase. In phase 0 this reads the slots of region dst front to back; in
// phase 1 it is a staggered read of slot dst from every region. The k-th
// group of BPM requests holds the message from source k.
func (m Matrix) AppendInboxReqs(reqs []pdm.BlockReq, phase, dst int) []pdm.BlockReq {
	return m.AppendInboxPrefixReqs(reqs, phase, dst, nil)
}

// AppendInboxPrefixReqs is AppendInboxReqs restricted to the live prefix
// of every slot: only the first live[src] blocks of the message from src
// are requested, in the same slot-major order (a nil live means every
// slot whole). The result is a subset of the full-image sequence, so no
// disk has more requests in it and packing it by disk (packed) never needs
// more operations.
func (m Matrix) AppendInboxPrefixReqs(reqs []pdm.BlockReq, phase, dst int, live []int) []pdm.BlockReq {
	for src := 0; src < m.V; src++ {
		r, a := m.Place(phase, src, dst)
		reqs = m.appendSlot(reqs, r, a, prefixLen(live, src, m.BPM))
	}
	return reqs
}

// AppendOutboxReqs appends to reqs the FIFO block-request sequence that
// writes VP src's entire outbox (V messages of BPM blocks each) in the
// given phase. The k-th group of BPM requests is the message to
// destination k. Outgoing messages of phase p are read as inboxes in phase
// p+1, so they are placed with Place(phase+1, ...).
func (m Matrix) AppendOutboxReqs(reqs []pdm.BlockReq, phase, src int) []pdm.BlockReq {
	return m.AppendOutboxPrefixReqs(reqs, phase, src, nil)
}

// AppendOutboxPrefixReqs is AppendOutboxReqs restricted to the first
// live[dst] blocks of the message to every dst (nil: every slot whole).
func (m Matrix) AppendOutboxPrefixReqs(reqs []pdm.BlockReq, phase, src int, live []int) []pdm.BlockReq {
	for dst := 0; dst < m.V; dst++ {
		r, a := m.Place(phase+1, src, dst)
		reqs = m.appendSlot(reqs, r, a, prefixLen(live, dst, m.BPM))
	}
	return reqs
}

// appendSlot appends the first n blocks of slot a of region r.
func (m Matrix) appendSlot(reqs []pdm.BlockReq, r, a, n int) []pdm.BlockReq {
	for q := 0; q < n; q++ {
		reqs = append(reqs, m.SlotBlock(r, a, q))
	}
	return reqs
}

// prefixLen is slot i's entry of a live-block table, or the whole slot
// when there is no table.
func prefixLen(live []int, i, bpm int) int {
	if live == nil {
		return bpm
	}
	return live[i]
}
