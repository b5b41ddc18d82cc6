package layout

import (
	"fmt"

	"repro/internal/pdm"
)

// Rect is a rectangular message matrix used by the multi-processor machine
// (Algorithm 3): on a real processor owning Regions virtual processors,
// region r is the inbox band of local VP r and holds Slots message slots,
// one per source VP in the whole machine. Regions are staggered across
// disks, and their slots paired on each disk, exactly like Matrix regions,
// so inbox reads are fully parallel and a region's live prefixes meet.
//
// Unlike Matrix, Rect does not alternate placements: the parallel machine
// double-buffers (two Rects used in ping-pong by round parity), because
// incoming message batches from other real processors can arrive before
// the local inbox of the same superstep has been consumed.
type Rect struct {
	Slots     int // message slots per region (= v, total virtual processors)
	Regions   int // regions (= local virtual processors)
	BPM       int // blocks per message slot
	D         int // disks
	BaseTrack int // first track
}

// NewRect validates and returns the geometry.
func NewRect(slots, regions, bpm, d, baseTrack int) (Rect, error) {
	if slots < 1 || regions < 1 || bpm < 1 || d < 1 || baseTrack < 0 {
		return Rect{}, fmt.Errorf("layout: invalid rect geometry slots=%d regions=%d bpm=%d d=%d base=%d",
			slots, regions, bpm, d, baseTrack)
	}
	return Rect{Slots: slots, Regions: regions, BPM: bpm, D: d, BaseTrack: baseTrack}, nil
}

// RegionTracks returns tracks per region.
func (m Rect) RegionTracks() int { return regionTracks(m.Slots, m.BPM, m.D) }

// TotalTracks returns the full footprint in tracks.
func (m Rect) TotalTracks() int { return m.Regions * m.RegionTracks() }

// SlotBlock returns the address of block q of slot a within region r.
func (m Rect) SlotBlock(r, a, q int) pdm.BlockReq {
	if r < 0 || r >= m.Regions || a < 0 || a >= m.Slots || q < 0 || q >= m.BPM {
		panic(fmt.Sprintf("layout: rect slot block (r=%d a=%d q=%d) out of range", r, a, q))
	}
	return slotBlock(r, m.BaseTrack+r*m.RegionTracks(), a, q, m.Slots, m.BPM, m.D)
}

// AppendSlotReqs appends the requests of the first n blocks of slot a in
// region r — the slot's live prefix; n = BPM is the whole slot.
func (m Rect) AppendSlotReqs(reqs []pdm.BlockReq, r, a, n int) []pdm.BlockReq {
	for q := 0; q < n; q++ {
		reqs = append(reqs, m.SlotBlock(r, a, q))
	}
	return reqs
}

// AppendRegionPrefixReqs appends the requests of the first live[a] blocks
// of every slot a of region r, slot by slot (a nil live means every slot
// whole), into caller-owned storage.
func (m Rect) AppendRegionPrefixReqs(reqs []pdm.BlockReq, r int, live []int) []pdm.BlockReq {
	for a := 0; a < m.Slots; a++ {
		reqs = m.AppendSlotReqs(reqs, r, a, prefixLen(live, a, m.BPM))
	}
	return reqs
}
