// Package repro is a Go reproduction of Dehne, Dittrich, Hutchinson &
// Maheshwari, "Reducing I/O Complexity by Simulating Coarse Grained
// Parallel Algorithms" (IPPS 1999): a deterministic simulation of CGM
// parallel algorithms as parallel external-memory (EM-CGM) algorithms,
// plus the CGM algorithm library of the paper's Figure 5 and the full
// benchmark harness regenerating its evaluation.
//
// See README.md for the tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the paper-vs-measured record. emcgm-bench prints
// every table and figure, and internal/experiments pins them to its
// golden output; the benchmarks in bench_test.go time them, Figure 5 row
// by row:
//
//	go run ./cmd/emcgm-bench
//	go test -bench=. -benchmem
package repro
