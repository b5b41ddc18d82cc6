package experiments

import (
	"testing"

	"repro/internal/cgm"
)

// TestInitCopiesInput holds every program of this package to the Init
// clause of the cgm.Program contract: the engine runs round 0 on the State
// Init left, so it must share no memory with the caller's input.
func TestInitCopiesInput(t *testing.T) {
	if err := cgm.InitCopies[int64](toNeighbour{}, 4, []int64{3, 1, 2}); err != nil {
		t.Error(err)
	}
}
