package core_test

import (
	"fmt"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/sortalg"
	"repro/internal/wordcodec"
)

// ExampleRunSeq simulates the CGM sorting program on a single processor
// with two disks — the paper's Algorithm 2.
func ExampleRunSeq() {
	keys := []int64{9, 3, 7, 1, 8, 2, 6, 4, 5, 0, 11, 10}
	cfg := sortalg.EMSortConfig(core.Config{V: 4, P: 1, D: 2, B: 8}, len(keys))
	res, err := core.RunSeq[int64](sortalg.Sorter[int64]{}, wordcodec.I64{}, cfg, cgm.Scatter(keys, 4))
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Output())
	fmt.Println("rounds:", res.Rounds, "fullness ≥ 0.5:", res.IO.Fullness(2) >= 0.5)
	// Output:
	// [0 1 2 3 4 5 6 7 8 9 10 11]
	// rounds: 3 fullness ≥ 0.5: true
}

// ExampleRunPar runs the same program on two real processors.
func ExampleRunPar() {
	keys := []int64{5, 4, 3, 2, 1, 0, 6, 7}
	cfg := sortalg.EMSortConfig(core.Config{V: 4, P: 2, D: 1, B: 8}, len(keys))
	res, err := core.RunPar[int64](sortalg.Sorter[int64]{}, wordcodec.I64{}, cfg, cgm.Scatter(keys, 4))
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Output())
	// Output:
	// [0 1 2 3 4 5 6 7]
}
