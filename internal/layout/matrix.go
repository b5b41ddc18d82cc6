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
// track BaseTrack + r·RegionTracks() with disk offset d_r = r mod D; slot a
// of region r occupies BPM consecutive striped blocks starting at
// region-local block index a·pitch(BPM, D). The first block of slot a of
// region r is therefore on disk (r + a) mod D: consecutive slots of a
// region, and the same slot of consecutive regions, start on consecutive
// disks, which is what lets one parallel I/O touch the first blocks of D
// of them (the shaded rectangles of Figure 2) — whole slots or live
// prefixes alike.
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

// pitch is the distance, in blocks, between the starts of consecutive
// slots of a region: bpm rounded up to ≡ 1 (mod d), so that each slot
// starts one disk after the one before it. It pads a slot by less than d
// blocks, and by none where bpm ≡ 1 (mod d) already (every bpm at d = 1).
func pitch(bpm, d int) int {
	return bpm + (d-(bpm-1)%d)%d
}

// regionTracks is the number of tracks a region of the given number of
// slots occupies: ⌈slots·pitch/D⌉ plus one track of slack for the region's
// disk offset.
func regionTracks(slots, bpm, d int) int {
	return (slots*pitch(bpm, d)+d-1)/d + 1
}

// slotBlock is the address of block q of slot a of the region with number
// r and first track t.
func slotBlock(r, t, a, q, bpm, d int) pdm.BlockReq {
	g := r%d + a*pitch(bpm, d) + q
	return pdm.BlockReq{Disk: g % d, Track: t + g/d}
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
	return slotBlock(r, m.BaseTrack+r*m.RegionTracks(), a, q, m.BPM, m.D)
}

// Place returns the (region, slot) holding the message src→dst in the
// given phase (superstep parity), per Observation 2's alternation.
func (m Matrix) Place(phase, src, dst int) (region, slot int) {
	if phase%2 == 0 {
		return dst, src
	}
	return src, dst
}

// InboxReqs returns the FIFO block-request sequence that reads VP dst's
// entire inbox (V messages of BPM blocks each) in the given phase. In
// phase 0 this reads the slots of region dst front to back; in phase 1 it
// is a staggered read of slot dst from every region. The k-th group of BPM
// requests holds the message from source k.
func (m Matrix) InboxReqs(phase, dst int) []pdm.BlockReq {
	return m.AppendInboxReqs(make([]pdm.BlockReq, 0, m.V*m.BPM), phase, dst)
}

// AppendInboxReqs is InboxReqs appending into caller-owned storage.
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

// OutboxReqs returns the FIFO block-request sequence that writes VP src's
// entire outbox (V messages of BPM blocks each) in the given phase. The
// k-th group of BPM requests is the message to destination k. Outgoing
// messages of phase p are read as inboxes in phase p+1, so they are placed
// with Place(phase+1, ...).
func (m Matrix) OutboxReqs(phase, src int) []pdm.BlockReq {
	return m.AppendOutboxReqs(make([]pdm.BlockReq, 0, m.V*m.BPM), phase, src)
}

// AppendOutboxReqs is OutboxReqs appending into caller-owned storage.
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
