package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cgm"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/wordcodec"
)

// TestCommitOrder holds commitOrder's table for every processor of a set
// of shapes: it is a permutation of the local VPs; in every full group of
// 2D global VPs wholly local to the processor, positions (2m, 2m + 1) of
// the group hold VPs whose message slots face each other on every disk
// (each pair's first blocks share a disk, on adjacent tracks, in every
// region; layout.slotBlock), and lead marks exactly their first
// positions; every other position keeps its own VP. Then both machines
// must commit in that order, round by round and processor by processor,
// at every GOMAXPROCS: the superstep rows a Recorder takes are emitted at
// commit, a held VP's before its partner's.
func TestCommitOrder(t *testing.T) {
	const bpm = 3
	for _, g := range []struct{ v, p, d int }{
		{8, 1, 2}, {16, 1, 4}, {16, 2, 4}, {12, 2, 2}, {6, 2, 1}, {10, 1, 2}, {16, 4, 3}, {8, 8, 1}, {7, 1, 2},
	} {
		localV := g.v / g.p
		mx := layout.Matrix{V: g.v, BPM: bpm, D: g.d}
		for i := range g.p {
			tag := fmt.Sprintf("v=%d p=%d D=%d proc %d", g.v, g.p, g.d, i)
			order, lead := commitOrder(g.v, g.p, g.d, i)
			sorted := slices.Clone(order)
			slices.Sort(sorted)
			if !slices.Equal(sorted, seqInts(localV)) {
				t.Fatalf("%s: order %v is not a permutation of the %d local VPs", tag, order, localV)
			}
			inGroup := make([]bool, localV)
			lo := i * localV
			for a := 0; a+2*g.d <= g.v; a += 2 * g.d {
				if a < lo || a+2*g.d > lo+localV {
					continue
				}
				s := a - lo // the group's first position: groups keep their place
				for m := range g.d {
					x, y := order[s+2*m], order[s+2*m+1]
					if x != s+m || y != s+m+g.d || !lead[s+2*m] || lead[s+2*m+1] {
						t.Fatalf("%s: positions %d, %d hold %d, %d (lead %v, %v), want %d, %d (lead true, false)",
							tag, s+2*m, s+2*m+1, x, y, lead[s+2*m], lead[s+2*m+1], s+m, s+m+g.d)
					}
					for r := range g.v {
						bx, by := mx.SlotBlock(r, lo+x, 0), mx.SlotBlock(r, lo+y, 0)
						if bx.Disk != by.Disk || by.Track != bx.Track+1 {
							t.Fatalf("%s: slots %d and %d of region %d begin at %+v and %+v: not facing", tag, lo+x, lo+y, r, bx, by)
						}
					}
				}
				for n := range 2 * g.d {
					inGroup[s+n] = true
				}
			}
			for pos, l := range order {
				if !inGroup[pos] && (l != pos || lead[pos]) {
					t.Fatalf("%s: position %d outside a full local group holds %d (lead %v), want itself", tag, pos, l, lead[pos])
				}
			}
		}
	}

	// The engine commits in the table's order at every GOMAXPROCS, at every
	// ring depth, held writes or not.
	const v, d, rounds = 8, 2, 3
	for _, m := range []struct {
		seq bool
		p   int
	}{{true, 1}, {false, 1}, {false, 2}} {
		for _, k := range []int{1, 3, 8} {
			for _, procs := range []int{1, 2, 8} {
				tag := fmt.Sprintf("seq=%v p=%d k=%d gomaxprocs=%d", m.seq, m.p, k, procs)
				rec := obs.NewRecorder()
				cfg := Config{V: v, P: m.p, D: d, B: 8, PipelineDepth: k, Recorder: rec}
				parts := cgm.Scatter(seq64(64), v)
				var err error
				AtProcs(procs, func() {
					if m.seq {
						_, err = RunSeq[int64](rotate{k: rounds}, wordcodec.I64{}, cfg, parts)
					} else {
						_, err = RunPar[int64](rotate{k: rounds}, wordcodec.I64{}, cfg, parts)
					}
				})
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				committed := make([][][]int, m.p) // per processor, per round: VPs in row order
				for _, row := range rec.StepsSince(0) {
					if row.Label != "superstep" {
						continue
					}
					for len(committed[row.Proc]) <= row.Round {
						committed[row.Proc] = append(committed[row.Proc], nil)
					}
					committed[row.Proc][row.Round] = append(committed[row.Proc][row.Round], row.VP-row.Proc*(v/m.p))
				}
				for i := range m.p {
					order, _ := commitOrder(v, m.p, d, i)
					if len(committed[i]) != rounds+1 {
						t.Fatalf("%s: proc %d recorded %d rounds, want %d", tag, i, len(committed[i]), rounds+1)
					}
					for r, got := range committed[i] {
						if !slices.Equal(got, order) {
							t.Fatalf("%s: proc %d round %d committed %v, want %v", tag, i, r, got, order)
						}
					}
				}
			}
		}
	}
}

// TestContextPairsMeet holds ctxRun, the context region's address rule,
// for every processor of a set of shapes and every live length: each
// position's live prefix lies inside its own run of cb blocks, so every
// block is in [0, v/p·cb) and no two VPs' contexts overlap; a position
// that is not the lead of a facing pair stores front to back from its
// run's first block; and for every full pair and every two live lengths
// 0 … cb, the lead's prefix and its partner's meet at the pair boundary,
// so together they are one run of tracks on every disk — one positioning
// for the pair's two context transfers.
func TestContextPairsMeet(t *testing.T) {
	for _, g := range []struct{ v, p, d, cb int }{
		{8, 1, 2, 16}, {8, 1, 2, 3}, {16, 1, 4, 5}, {16, 2, 4, 3}, {12, 2, 2, 7}, {6, 2, 1, 4}, {10, 1, 2, 1}, {16, 4, 3, 6}, {7, 1, 2, 2},
	} {
		localV := g.v / g.p
		for i := range g.p {
			tag := fmt.Sprintf("v=%d p=%d D=%d cb=%d proc %d", g.v, g.p, g.d, g.cb, i)
			_, lead := commitOrder(g.v, g.p, g.d, i)
			for pos := range localV {
				for nb := 0; nb <= g.cb; nb++ {
					start, back := ctxRun(lead, pos, g.cb, nb)
					if start < pos*g.cb || start+nb > (pos+1)*g.cb || start+nb > localV*g.cb {
						t.Fatalf("%s: position %d, %d blocks at [%d, %d): outside its run [%d, %d)",
							tag, pos, nb, start, start+nb, pos*g.cb, (pos+1)*g.cb)
					}
					if !lead[pos] && (start != pos*g.cb || back) {
						t.Fatalf("%s: position %d (not a lead), %d blocks: start %d back %v, want front to back from %d",
							tag, pos, nb, start, back, pos*g.cb)
					}
				}
				if !lead[pos] {
					continue
				}
				for n1 := 0; n1 <= g.cb; n1++ {
					for n2 := 0; n2 <= g.cb; n2++ {
						tracks := make([][]int, g.d)
						for k, nb := range []int{n1, n2} {
							start, _ := ctxRun(lead, pos+k, g.cb, nb)
							for b := start; b < start+nb; b++ {
								r := layout.Striped(b, g.d, 0)
								tracks[r.Disk] = append(tracks[r.Disk], r.Track)
							}
						}
						for dk, ts := range tracks {
							slices.Sort(ts)
							if len(ts) > 0 && ts[len(ts)-1]-ts[0] != len(ts)-1 {
								t.Fatalf("%s: pair at positions %d, %d with %d and %d live blocks: disk %d tracks %v are not one run",
									tag, pos, pos+1, n1, n2, dk, ts)
							}
						}
					}
				}
			}
		}
	}
}

// CommitOrder is commitOrder, exported for the core_test files.
func CommitOrder(v, p, d, i int) (order []int, lead []bool) { return commitOrder(v, p, d, i) }

// seqInts is 0, 1, …, n−1.
func seqInts(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
