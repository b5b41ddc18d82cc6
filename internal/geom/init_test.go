package geom

import (
	"testing"

	"repro/internal/cgm"
	"repro/internal/rec"
)

// TestInitCopiesInput holds every program of this package to the Init
// clause of the cgm.Program contract: the engine runs round 0 on the State
// Init left, so it must share no memory with the caller's input.
func TestInitCopiesInput(t *testing.T) {
	in := make([]rec.R, 9)
	for i := range in {
		in[i] = rec.R{Tag: 1, A: int64(i + 1), B: int64(i + 2), C: 1, D: 1, X: float64(i%4 + 1), Y: float64(i*i%7 + 1)}
	}
	for _, p := range []cgm.Program[rec.R]{unionArea{}, triangulate{}, gridFinish{}, hullProg{}, dirSep{DX: 1}, annProg{}, nextAbove{}, envelope{}} {
		if err := cgm.InitCopies(p, 4, in); err != nil {
			t.Error(err)
		}
	}
}
