package balance_test

import (
	"fmt"

	"repro/internal/balance"
)

// ExamplePhaseA shows the round-robin binning of Algorithm 1: a skewed
// message set becomes near-uniform bins.
func ExamplePhaseA() {
	// Processor 0 of 4 sends 8 items to processor 2 only.
	msgs := make([][]int64, 4)
	msgs[2] = []int64{10, 11, 12, 13, 14, 15, 16, 17}
	bins := balance.PhaseA(0, 4, msgs, nil)
	for b, items := range bins {
		fmt.Printf("bin %d: %d items\n", b, len(items))
	}
	// Output:
	// bin 0: 2 items
	// bin 1: 2 items
	// bin 2: 2 items
	// bin 3: 2 items
}
