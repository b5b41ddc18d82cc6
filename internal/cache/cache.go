// Package cache implements the paper's second Section 5 extension: using
// the CGM→EM simulation to control cache misses. The same two-level
// analysis applies between cache and main memory: with N = problem size
// in memory, M_I = cache size and B_I = cache-line size, running a
// coarse-grained parallel program whose virtual-processor contexts are
// tuned to the cache turns the memory traffic into blocked, line-sized
// transfers — (M_I/B_I)^c ≥ N removes the log factor here too, supporting
// Vishkin's suggestion the paper cites.
//
// The machinery is literally the EM-CGM simulation of package core with
// the "disks" reinterpreted as main memory: D = 1, B = the cache line,
// M = the cache size. The simulation's exact block-transfer counts are
// the program's cache-miss counts under a victim-less ideal cache.
package cache

import (
	"time"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/sortalg"
	"repro/internal/wordcodec"
)

// Model is a two-level cache/memory cost model.
type Model struct {
	MWords    int           // cache capacity in words (M_I)
	LineWords int           // cache line in words (B_I); 8 words = 64 B
	MissTime  time.Duration // memory access on a miss
}

// DefaultModel is a 1990s-flavoured cache: 32 Ki words (256 KiB) of
// cache, 8-word (64 B) lines, 100 ns miss penalty.
func DefaultModel() Model {
	return Model{MWords: 1 << 15, LineWords: 8, MissTime: 100 * time.Nanosecond}
}

// TunedSortMisses runs the CGM sorting program through the simulation
// with the cache as the internal memory — v chosen so every virtual
// processor's context fits the cache — and returns the exact number of
// line transfers (cache misses) plus the modelled stall time.
func (m Model) TunedSortMisses(keys []int64) (misses int64, stall time.Duration, v int, err error) {
	n := len(keys)
	// Choose v so a context (≈ 2.5·N/v words for the sorter) fits in cache.
	v = 2
	for 3*(n/v) > m.MWords && v < n {
		v *= 2
	}
	cfg := sortalg.EMSortConfig(core.Config{V: v, P: 1, D: 1, B: m.LineWords}, n)
	res, err := core.RunSeq[int64](sortalg.Sorter[int64]{}, wordcodec.I64{}, cfg, cgm.Scatter(keys, v))
	if err != nil {
		return 0, 0, v, err
	}
	misses = res.IO.BlocksMoved // line transfers between cache and memory
	return misses, time.Duration(misses) * m.MissTime, v, nil
}

// NaiveSortMisses models the cache misses of an untuned comparison sort
// over the same data: n·log₂(n) accesses, each missing with probability
// 1 − M/N once the working set exceeds the cache (independent reference
// model) — and with no spatial locality, every miss costs a line fill
// that serves a single access.
func (m Model) NaiveSortMisses(n int) (misses int64, stall time.Duration) {
	if n <= m.MWords {
		return 0, 0
	}
	levels := 1
	for 1<<levels < n {
		levels++
	}
	missProb := 1 - float64(m.MWords)/float64(n)
	misses = int64(float64(n) * float64(levels) * missProb)
	return misses, time.Duration(misses) * m.MissTime
}
