package layout

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pdm"
)

// paddedSlotBlock is the reference slotBlock's runs are held to: the
// same disk for every block, but each slot striped round-robin from
// global block r mod d + a·pitch of its region, pitch being b′ rounded up
// to ≡ 1 (mod d), so consecutive slots leave holes between them wherever
// b′ ≢ 1 (mod d), and a prefix meets the next slot's only if it nearly
// fills its own.
func paddedSlotBlock(r, t, a, q, bpm, d int) pdm.BlockReq {
	pitch := bpm + (d-(bpm-1)%d)%d
	g := r%d + a*pitch + q
	return pdm.BlockReq{Disk: g % d, Track: t + g/d}
}

// runsPerDisk is, for every disk, the number of maximal runs of
// consecutive tracks the burst touches there: the positionings a disk pays
// when it serves its share of the burst as one batch.
func runsPerDisk(reqs []pdm.BlockReq, d int) []int {
	tracks := make([][]int, d)
	for _, r := range reqs {
		tracks[r.Disk] = append(tracks[r.Disk], r.Track)
	}
	runs := make([]int, d)
	for k, ts := range tracks {
		slices.Sort(ts)
		for i, t := range ts {
			if i == 0 || t > ts[i-1]+1 {
				runs[k]++
			}
		}
	}
	return runs
}

// slotRef is one slot of a burst: its region, its slot and how many of its
// blocks are live.
type slotRef struct{ r, a, n int }

// addresses lists the live blocks of the slots, slot by slot, under the
// given address rule.
func addresses(slots []slotRef, at func(r, a, q int) pdm.BlockReq) []pdm.BlockReq {
	var reqs []pdm.BlockReq
	for _, s := range slots {
		for q := 0; q < s.n; q++ {
			reqs = append(reqs, at(s.r, s.a, q))
		}
	}
	return reqs
}

// matrixBursts returns the slots of VP vp's inbox and outbox transfers in
// both phases, in the order the Append…PrefixReqs functions list them.
func matrixBursts(m Matrix, vp int, live []int) map[string][]slotRef {
	bursts := map[string][]slotRef{}
	for phase := 0; phase < 2; phase++ {
		var in, out []slotRef
		for k := 0; k < m.V; k++ {
			r, a := m.Place(phase, k, vp)
			in = append(in, slotRef{r, a, live[k]})
			r, a = m.Place(phase+1, vp, k)
			out = append(out, slotRef{r, a, live[k]})
		}
		bursts[fmt.Sprintf("inbox phase %d", phase)] = in
		bursts[fmt.Sprintf("outbox phase %d", phase)] = out
	}
	return bursts
}

// TestLivePrefixesMeet holds the track rule of slotBlock to what it is
// for: a consecutive burst of live prefixes is few runs on every disk, and
// a staggered burst pays no more than one run per message on a disk.
//
// The consecutive side — the phase-0 inbox and outbox, a Rect region — is
// checked on equal prefixes of L blocks with 2D | v, the shape the
// engine's slots take on balanced data: at most v/2 runs per disk for
// L ≥ D, ⌈vL/(2D)⌉ for L < D, one for L = b′, and never more than the
// padded rule it replaced. On random tables of nearly full slots the new
// rule can cost more consecutive runs than the padded one (a pair whose
// prefixes stop short of its midpoint on some disk splits there); that
// does not arise where slots are sized at 2.5× the mean message, so it is
// not asserted. The staggered side — the phase-1 inbox and outbox, a
// routed batch — is held on random live tables of any v: one run per
// message per disk at most.
func TestLivePrefixesMeet(t *testing.T) {
	// The region footprint is the padded rule's, so no base track moves.
	for d := 1; d <= 9; d++ {
		for bpm := 1; bpm <= 30; bpm++ {
			for slots := 1; slots <= 20; slots++ {
				pitch := bpm + (d-(bpm-1)%d)%d
				if got, want := regionTracks(slots, bpm, d), (slots*pitch+d-1)/d+1; got != want {
					t.Fatalf("regionTracks(%d, %d, %d) = %d, want the padded rule's %d", slots, bpm, d, got, want)
				}
			}
		}
	}

	ceil := func(a, b int) int { return (a + b - 1) / b }
	for d := 1; d <= 8; d++ {
		for v := 2 * d; v <= 8*d; v += 2 * d {
			for bpm := 1; bpm <= 12; bpm++ {
				m, err := NewMatrix(v, bpm, d, 3)
				if err != nil {
					t.Fatal(err)
				}
				rect, err := NewRect(v, 2, bpm, d, 5)
				if err != nil {
					t.Fatal(err)
				}
				padded := func(base, tracks int) func(r, a, q int) pdm.BlockReq {
					return func(r, a, q int) pdm.BlockReq { return paddedSlotBlock(r, base+r*tracks, a, q, bpm, d) }
				}
				vp := bpm % v
				for L := 1; L <= bpm; L++ {
					live := make([]int, v)
					for i := range live {
						live[i] = L
					}
					region := make([]slotRef, v)
					for a := range region {
						region[a] = slotRef{1, a, L}
					}
					all := matrixBursts(m, vp, live)
					bursts := map[string]struct {
						reqs      []pdm.BlockReq
						slots     []slotRef
						at, other func(r, a, q int) pdm.BlockReq
					}{
						"inbox phase 0":  {m.AppendInboxPrefixReqs(nil, 0, vp, live), all["inbox phase 0"], m.SlotBlock, padded(m.BaseTrack, m.RegionTracks())},
						"outbox phase 0": {m.AppendOutboxPrefixReqs(nil, 0, vp, live), all["outbox phase 0"], m.SlotBlock, padded(m.BaseTrack, m.RegionTracks())},
						"rect region":    {rect.AppendRegionPrefixReqs(nil, 1, live), region, rect.SlotBlock, padded(rect.BaseTrack, rect.RegionTracks())},
					}
					want := v / 2
					if L < d {
						want = ceil(v*L, 2*d)
					}
					if L == bpm {
						want = 1
					}
					for name, b := range bursts {
						tag := fmt.Sprintf("v=%d b′=%d D=%d L=%d %s", v, bpm, d, L, name)
						if !slices.Equal(b.reqs, addresses(b.slots, b.at)) {
							t.Fatalf("%s: the burst is not its slots' live blocks in slot order", tag)
						}
						got, ref := runsPerDisk(b.reqs, d), runsPerDisk(addresses(b.slots, b.other), d)
						for k := range got {
							if got[k] > want {
								t.Errorf("%s: %d runs on disk %d, want ≤ %d", tag, got[k], k, want)
							}
							if got[k] > ref[k] {
								t.Errorf("%s: %d runs on disk %d, the padded rule's %d", tag, got[k], k, ref[k])
							}
						}
					}
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 2000; trial++ {
		d := 1 + rng.Intn(8)
		v, bpm := 1+rng.Intn(8*d), 1+rng.Intn(12)
		regions := 1 + rng.Intn(v)
		m, err := NewMatrix(v, bpm, d, 3)
		if err != nil {
			t.Fatal(err)
		}
		rect, err := NewRect(v, regions, bpm, d, 5)
		if err != nil {
			t.Fatal(err)
		}
		live := make([]int, v)
		for i := range live {
			live[i] = rng.Intn(bpm + 1)
		}
		vp := rng.Intn(v)
		all := matrixBursts(m, vp, live)
		var routed []slotRef
		var batch []pdm.BlockReq
		for r := 0; r < regions; r++ {
			routed = append(routed, slotRef{r, vp, live[r%v]})
			batch = rect.AppendSlotReqs(batch, r, vp, live[r%v])
		}
		bursts := map[string]struct {
			reqs  []pdm.BlockReq
			slots []slotRef
			at    func(r, a, q int) pdm.BlockReq
		}{
			"inbox phase 1":  {m.AppendInboxPrefixReqs(nil, 1, vp, live), all["inbox phase 1"], m.SlotBlock},
			"outbox phase 1": {m.AppendOutboxPrefixReqs(nil, 1, vp, live), all["outbox phase 1"], m.SlotBlock},
			"routed batch":   {batch, routed, rect.SlotBlock},
		}
		for name, b := range bursts {
			if !slices.Equal(b.reqs, addresses(b.slots, b.at)) {
				t.Fatalf("v=%d b′=%d D=%d %s: the burst is not its slots' live blocks in slot order", v, bpm, d, name)
			}
			// messages[k] is the number of messages with a live block on
			// disk k.
			messages := make([]int, d)
			for _, s := range b.slots {
				for k := 0; k < min(s.n, d); k++ {
					messages[(s.r+s.a+k)%d]++
				}
			}
			for k, got := range runsPerDisk(b.reqs, d) {
				if got > messages[k] {
					t.Errorf("v=%d b′=%d D=%d live=%v %s: %d runs on disk %d for %d messages",
						v, bpm, d, live, name, got, k, messages[k])
				}
			}
		}
	}
}
