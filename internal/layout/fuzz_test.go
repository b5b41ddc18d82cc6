package layout

import (
	"testing"

	"repro/internal/pdm"
)

// FuzzStaggeredLayout fuzzes the message-matrix geometry of Figure 2 and
// round-trips the consecutive↔staggered alternation of Observation 2:
// every message written through the outbox placement of phase p must be
// read back, exactly once and in source order, by the inbox placement of
// phase p+1, with each matrix block owned by exactly one slot of the
// region whose tracks hold it. The stagger is asserted structurally — the
// first blocks of consecutive slots, and of one slot in consecutive
// regions, sit on consecutive disks, whatever b′ and D are — and so is the
// disk of every block, (r + a + q) mod D, which is all the packing rule
// and the cost model read: the track rule may place blocks within their
// disk as it likes, never move one to another disk.
func FuzzStaggeredLayout(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint8(3), uint8(0))
	f.Add(uint8(5), uint8(1), uint8(4), uint8(1))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0))
	f.Add(uint8(8), uint8(3), uint8(5), uint8(1))
	f.Fuzz(func(t *testing.T, v, bpm, d, phase uint8) {
		V := int(v%8) + 1
		BPM := int(bpm%4) + 1
		D := int(d%8) + 1
		p := int(phase % 2)
		m, err := NewMatrix(V, BPM, D, 3)
		if err != nil {
			t.Fatal(err)
		}

		// Every slot block is in bounds and owned by exactly one
		// (region, slot, block) triple.
		owner := map[pdm.BlockReq]struct{}{}
		for r := 0; r < V; r++ {
			for a := 0; a < V; a++ {
				for q := 0; q < BPM; q++ {
					req := m.SlotBlock(r, a, q)
					if req.Disk != (r+a+q)%D {
						t.Fatalf("slot (%d,%d,%d): disk %d, want (r+a+q) mod %d = %d", r, a, q, req.Disk, D, (r+a+q)%D)
					}
					if t0 := m.BaseTrack + r*m.RegionTracks(); req.Track < t0 || req.Track >= t0+m.RegionTracks() {
						t.Fatalf("slot (%d,%d,%d): track %d outside region %d's [%d, %d)", r, a, q, req.Track, r, t0, t0+m.RegionTracks())
					}
					if _, dup := owner[req]; dup {
						t.Fatalf("block %+v owned by two slots", req)
					}
					owner[req] = struct{}{}
				}
			}
		}

		// Write every VP's outbox in phase p, then read every VP's inbox
		// in phase p+1. The writes must not collide, and the reads must
		// consume every written block exactly once, recovering message
		// src→dst at inbox group src.
		disk := map[pdm.BlockReq]int{}
		id := func(src, dst, q int) int { return (src*V+dst)*BPM + q }
		for src := 0; src < V; src++ {
			reqs := m.AppendOutboxReqs(nil, p, src)
			if len(reqs) != V*BPM {
				t.Fatalf("outbox of %d: %d requests, want %d", src, len(reqs), V*BPM)
			}
			for k, req := range reqs {
				if _, dup := disk[req]; dup {
					t.Fatalf("phase %d: outbox writes collide at %+v", p, req)
				}
				disk[req] = id(src, k/BPM, k%BPM)
			}
		}
		for dst := 0; dst < V; dst++ {
			reqs := m.AppendInboxReqs(nil, p+1, dst)
			if len(reqs) != V*BPM {
				t.Fatalf("inbox of %d: %d requests, want %d", dst, len(reqs), V*BPM)
			}
			for k, req := range reqs {
				got, ok := disk[req]
				if !ok {
					t.Fatalf("phase %d: inbox of %d reads unwritten block %+v", p+1, dst, req)
				}
				if want := id(k/BPM, dst, k%BPM); got != want {
					t.Fatalf("phase %d: inbox of %d found message %d at group %d, want %d", p+1, dst, got, k/BPM, want)
				}
				delete(disk, req)
			}
		}
		if len(disk) != 0 {
			t.Fatalf("phase %d: %d written blocks never read back", p, len(disk))
		}

		// The stagger: one step along a region or across regions is one
		// disk, so any D neighbouring slots begin on D different disks.
		for r := 0; r < V; r++ {
			for a := 0; a < V; a++ {
				next := (m.SlotBlock(r, a, 0).Disk + 1) % D
				if a+1 < V && m.SlotBlock(r, a+1, 0).Disk != next {
					t.Fatalf("slots %d and %d of region %d do not start on consecutive disks", a, a+1, r)
				}
				if r+1 < V && m.SlotBlock(r+1, a, 0).Disk != next {
					t.Fatalf("slot %d of regions %d and %d does not start on consecutive disks", a, r, r+1)
				}
			}
		}

		// Both placements use the whole matrix: each phase maps the V²
		// messages onto the V² slots one to one.
		for phase := 0; phase < 2; phase++ {
			slots := map[[2]int]struct{}{}
			for src := 0; src < V; src++ {
				for dst := 0; dst < V; dst++ {
					r, a := m.Place(phase, src, dst)
					slots[[2]int{r, a}] = struct{}{}
				}
			}
			if len(slots) != V*V {
				t.Fatalf("phase %d places %d² messages in %d slots", phase, V, len(slots))
			}
		}

		// Observation 2's alternation has period two: after a staggered
		// superstep the consecutive placement returns.
		for src := 0; src < V; src++ {
			for dst := 0; dst < V; dst++ {
				r0, a0 := m.Place(p, src, dst)
				r2, a2 := m.Place(p+2, src, dst)
				if r0 != r2 || a0 != a2 {
					t.Fatalf("placement of %d→%d does not return after two phases", src, dst)
				}
			}
		}
	})
}
