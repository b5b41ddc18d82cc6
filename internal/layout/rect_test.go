package layout

import (
	"testing"

	"repro/internal/pdm"
)

func TestRectValidation(t *testing.T) {
	if _, err := NewRect(0, 1, 1, 1, 0); err == nil {
		t.Error("slots=0 accepted")
	}
	if _, err := NewRect(1, 0, 1, 1, 0); err == nil {
		t.Error("regions=0 accepted")
	}
	if _, err := NewRect(1, 1, 1, 1, -1); err == nil {
		t.Error("negative base accepted")
	}
}

func TestRectInjective(t *testing.T) {
	for _, g := range []struct{ slots, regions, bpm, d int }{
		{8, 2, 1, 2}, {6, 3, 2, 4}, {5, 5, 3, 3}, {4, 1, 2, 8},
	} {
		m, err := NewRect(g.slots, g.regions, g.bpm, g.d, 3)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[pdm.BlockReq]bool{}
		for r := 0; r < g.regions; r++ {
			for a := 0; a < g.slots; a++ {
				for q := 0; q < g.bpm; q++ {
					req := m.SlotBlock(r, a, q)
					if req.Track < 3 || req.Track >= 3+m.TotalTracks() {
						t.Fatalf("%+v: out of band: %v", g, req)
					}
					if seen[req] {
						t.Fatalf("%+v: duplicate address %v", g, req)
					}
					seen[req] = true
				}
			}
		}
	}
}

func TestRectRoundTrip(t *testing.T) {
	const slots, regions, bpm, d, b = 6, 3, 2, 4, 2
	m, err := NewRect(slots, regions, bpm, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	arr := pdm.NewMemArray(d, b)
	// Write every slot with a distinctive payload via FIFO writes.
	for r := 0; r < regions; r++ {
		for a := 0; a < slots; a++ {
			bufs := make([][]pdm.Word, bpm)
			for q := range bufs {
				bufs[q] = []pdm.Word{pdm.Word(r*1000 + a*10 + q), 0}
			}
			if _, err := fifo(arr, false, m.AppendSlotReqs(nil, r, a, bpm), bufs); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Read regions back as consecutive runs.
	for r := 0; r < regions; r++ {
		reqs := m.AppendRegionPrefixReqs(nil, r, nil)
		bufs := make([][]pdm.Word, len(reqs))
		for i := range bufs {
			bufs[i] = make([]pdm.Word, b)
		}
		ops, err := fifo(arr, true, reqs, bufs)
		if err != nil {
			t.Fatal(err)
		}
		minOps := (slots*bpm + d - 1) / d
		if ops > minOps+1 {
			t.Errorf("region %d read ops = %d, want ≤ %d", r, ops, minOps+1)
		}
		for a := 0; a < slots; a++ {
			for q := 0; q < bpm; q++ {
				got := bufs[a*bpm+q][0]
				if got != pdm.Word(r*1000+a*10+q) {
					t.Fatalf("region %d slot %d block %d = %d", r, a, q, got)
				}
			}
		}
	}
}
