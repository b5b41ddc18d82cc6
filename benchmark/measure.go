package main

import (
	"cmp"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/costmodel"
)

const (
	// setupReps is how often a workload is set up in a process that reports
	// setup_s, so that it is a median and not one sample.
	setupReps = 3
	// minIters is the least number of timed iterations behind a median.
	minIters = 7
	// minPairs is the least number of (untraced, traced) iteration pairs
	// behind the per-layer numbers.
	minPairs = 3
	// stopFactor times the asked-for measuring time is where a phase stops
	// even if it has not reached its iteration count.
	stopFactor = 2.5
)

// result is everything measured for one workload.
type result struct {
	Name      string             `json:"name"`
	DirectIO  bool               `json:"direct_io"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]summary `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

func (r *result) fail(phase string, err error) {
	r.Failed++
	fmt.Fprintf(os.Stderr, "benchmark: %s: %s: %v\n", r.Name, phase, err)
}

// iterStats is one iteration seen from outside: the program's accounting
// and what the Go runtime did meanwhile.
type iterStats struct {
	info       runInfo
	allocBytes uint64
	mallocs    uint64
	numGC      uint32
	gcPause    time.Duration
}

// iterate runs the instance once. The collection beforehand starts every
// iteration from the same heap, outside the timed region, so that one
// iteration's garbage is not charged to the next.
func iterate(inst *instance, tr *tracer) (iterStats, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	info, err := inst.run(tr)
	runtime.ReadMemStats(&m1)
	return iterStats{
		info:       info,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		mallocs:    m1.Mallocs - m0.Mallocs,
		numGC:      m1.NumGC - m0.NumGC,
		gcPause:    time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
	}, err
}

// setupPhase sets the workload up reps times — inputs from the seed, the
// reference output, the O_DIRECT probe and one discarded warm-up iteration
// — and returns the last instance and the time each took.
func setupPhase(s *spec, seed int64, e *env, reps int, r *result) (*instance, []float64) {
	var inst *instance
	var secs []float64
	for i := 0; i < reps; i++ {
		inst = nil // let the previous inputs go before the next are made
		start := time.Now()
		inst = s.setup(s, seed, e)
		r.Attempted++
		if _, err := inst.run(nil); err != nil {
			r.fail("warm-up", err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return inst, secs
}

// done says whether a phase that wants at least n rounds and dur of
// measuring has had enough after rounds rounds and elapsed time.
func done(rounds, n int, elapsed, dur time.Duration) bool {
	if rounds >= n && elapsed >= dur {
		return true
	}
	return rounds > 0 && dur > 0 && elapsed >= time.Duration(stopFactor*float64(dur))
}

// timedPhase measures the end-to-end metrics: untraced iterations for at
// least dur and at least minIters.
func timedPhase(inst *instance, dur time.Duration, r *result) []iterStats {
	var its []iterStats
	begin := time.Now()
	for n := 0; !done(n, minIters, time.Since(begin), dur); n++ {
		r.Attempted++
		it, err := iterate(inst, nil)
		if err == nil && len(its) > 0 && it.info.io.ParallelOps != its[0].info.io.ParallelOps {
			err = fmt.Errorf("parallel I/Os do not repeat: %d, then %d", its[0].info.io.ParallelOps, it.info.io.ParallelOps)
		}
		if err != nil {
			r.fail("timed iteration", err)
			continue
		}
		its = append(its, it)
	}
	return its
}

// endToEnd summarises the timed iterations and the set-up times.
func endToEnd(s *spec, its []iterStats, setupSecs []float64, r *result) map[string]summary {
	var wall, rate, ios, alloc []float64
	for _, it := range its {
		w := it.info.wall.Seconds()
		wall = append(wall, w)
		rate = append(rate, float64(s.n)/w)
		ios = append(ios, float64(it.info.io.ParallelOps))
		alloc = append(alloc, float64(it.allocBytes)/1e6)
	}
	return map[string]summary{
		"wall_s":       summarise(wall),
		"items_per_s":  summarise(rate),
		"parallel_ios": summarise(ios),
		"alloc_mb":     summarise(alloc),
		"setup_s":      summarise(setupSecs),
		failedFrac:     summarise([]float64{float64(r.Failed) / float64(max(r.Attempted, 1))}),
	}
}

// tracedIter is one traced iteration: the outside view, the wrappers'
// sums, and what the recorder and the ledger core filled say.
type tracedIter struct {
	iterStats
	sums              layerSums
	stall             time.Duration // summed over processors
	depth, runs       int
	steps             int // compound supersteps per processor, all runs
	predOps, measOps  int64
	predWall, predStl time.Duration
	dropped           int64
}

// tracedIterate runs one iteration with every wrapper attached.
func tracedIterate(s *spec, inst *instance, tr *tracer) (tracedIter, error) {
	tr.begin(s.name)
	it, err := iterate(inst, tr)
	sums, werr := tr.end()
	if err == nil {
		err = werr
	}
	if err == nil {
		err = tr.ledger.Reconcile()
	}
	t := tracedIter{iterStats: it, sums: sums, dropped: tr.rec.DroppedEvents()}
	if err != nil {
		return t, err
	}
	runs := tr.ledger.Runs()
	t.runs = len(runs)
	for _, run := range runs {
		t.stall += run.Totals.Stall
		t.predOps += run.PredOps
		t.measOps += run.Totals.ParallelOps
		t.steps += run.Machine.Rounds * run.Machine.LocalV()
		t.depth = run.Machine.Depth
	}
	if t.steps == 0 {
		return t, nil
	}
	// Price the schedule with the overlap model. The device's time model is
	// known for the model disks and fitted from this run's own service
	// times otherwise; the per-superstep compute the model wants is this
	// run's time outside stall.
	tm := seqModel
	if s.kind != modelBackend {
		if tm, err = costmodel.FitTimeModel(s.cfg.B, tr.rec.Fits()); err != nil {
			return t, nil // no disk observations: leave the predictions at 0
		}
	}
	perStep := (it.info.wall - t.stall/time.Duration(s.cfg.P)) / time.Duration(t.steps)
	for _, run := range runs {
		pt := run.ModelWallPipelined(tm, perStep, run.Machine.Depth)
		t.predWall += pt.Wall
		t.predStl += pt.Stall * time.Duration(run.Machine.P)
	}
	return t, nil
}

// tracedPhase makes the traced run: one discarded traced warm-up, then
// alternating untraced and traced iterations, at least minPairs of each
// and for at least dur. The untraced ones are the base of the tracing
// overhead; neither kind's wall is an end-to-end number.
func tracedPhase(s *spec, inst *instance, tr *tracer, dur time.Duration, r *result) (plain []iterStats, traced []tracedIter) {
	r.Attempted++
	if _, err := tracedIterate(s, inst, tr); err != nil {
		r.fail("traced warm-up", err)
	}
	begin := time.Now()
	for n := 0; !done(n, minPairs, time.Since(begin), dur); n++ {
		r.Attempted += 2
		p, err := iterate(inst, nil)
		if err != nil {
			r.fail("untraced iteration", err)
			continue
		}
		t, err := tracedIterate(s, inst, tr)
		if err != nil {
			r.fail("traced iteration", err)
			continue
		}
		plain, traced = append(plain, p), append(traced, t)
	}
	return plain, traced
}

// timeInmem runs the workload's program on the in-memory CGM runtime,
// once to warm up and then twice, and returns the faster: the ceiling an
// external-memory run of the same program is held against.
func timeInmem(inst *instance, r *result) time.Duration {
	if inst.inmem == nil {
		return 0
	}
	var best time.Duration
	for i := 0; i < 3; i++ {
		runtime.GC()
		start := time.Now()
		r.Attempted++
		if err := inst.inmem(); err != nil {
			r.fail("in-memory run", err)
			return 0
		}
		if d := time.Since(start); i > 0 && (best == 0 || d < best) {
			best = d
		}
	}
	return best
}

// wallsOf lists the iterations' walls in seconds.
func wallsOf(its []iterStats) []float64 {
	walls := make([]float64, len(its))
	for i, it := range its {
		walls[i] = it.info.wall.Seconds()
	}
	return walls
}

// medianIndex returns the index of the median of xs (the lower one of an
// even count). Every per-layer time and count is taken from the one
// iteration it picks, so that the layers add up to its wall exactly.
func medianIndex(xs []float64) int {
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(xs[a], xs[b]) })
	return order[(len(order)-1)/2]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer turns the traced run into the per-layer metrics. Metrics that
// a workload cannot measure (no wrapper can be injected, or the layer is
// not in its path) are 0.
func perLayer(s *spec, plain []iterStats, traced []tracedIter, inmem time.Duration) map[string]float64 {
	untraced := make([]iterStats, len(traced))
	for i, t := range traced {
		untraced[i] = t.iterStats
	}
	plainWalls, tracedWalls := wallsOf(plain), wallsOf(untraced)
	pl, tr := plain[medianIndex(plainWalls)], traced[medianIndex(tracedWalls)]
	p := float64(s.cfg.P)
	wall := tr.info.wall.Seconds()
	pwall := p * wall
	busy, compute, codec, stall := tr.sums.diskBusy.Seconds(), tr.sums.compute.Seconds(), tr.sums.codec.Seconds(), tr.stall.Seconds()
	io := pl.info.io

	m := map[string]float64{
		"obs.traced_wall_s":       wall,
		"obs.trace_overhead_frac": summarise(tracedWalls).Median/summarise(plainWalls).Median - 1,
		"obs.dropped_events":      float64(tr.dropped),

		"pdm.disk_busy_s":      busy,
		"pdm.disk_util":        busy / (float64(s.disks()) * wall),
		"pdm.mb_per_s":         ratio(float64(tr.sums.tracks)*float64(8*s.cfg.B)/1e6, busy),
		"pdm.syscalls_per_pio": ratio(float64(pl.info.syscalls), float64(io.ParallelOps)),
		"pdm.disk_calls":       float64(tr.sums.diskCalls),
		"pdm.tracks_per_call":  ratio(float64(tr.sums.tracks), float64(tr.sums.diskCalls)),
		"pdm.runs_per_call":    ratio(float64(tr.sums.runs), float64(tr.sums.diskCalls)),
		"pdm.blocks_moved":     float64(io.BlocksMoved),
		"pdm.fullness":         io.Fullness(s.cfg.D),

		"core.stall_s":          stall,
		"core.stall_frac":       stall / pwall,
		"core.depth":            float64(pl.info.depth),
		"core.depth_traced":     float64(tr.depth),
		"core.other_s":          0,
		"core.other_frac":       0,
		"core.rounds":           float64(pl.info.rounds),
		"core.supersteps":       float64(pl.info.supersteps),
		"core.runs":             float64(tr.runs),
		"core.us_per_superstep": ratio(pl.info.wall.Seconds()*1e6, float64(pl.info.supersteps)),
		"core.ctx_ops":          float64(pl.info.ctxOps),
		"core.msg_ops":          float64(pl.info.msgOps),
		// The constant in front of N/(pDB): parallel I/Os per processor
		// over N/(pDB), N in items.
		"core.io_const":   float64(io.ParallelOps) * float64(s.cfg.D*s.cfg.B) / float64(s.n),
		"core.comm_items": float64(pl.info.commItems),
		"core.max_tracks": float64(pl.info.maxTracks),

		"cgm.compute_s":         compute,
		"cgm.compute_frac":      compute / pwall,
		"cgm.inmem_wall_s":      inmem.Seconds(),
		"cgm.em_over_inmem":     ratio(pl.info.wall.Seconds(), inmem.Seconds()),
		"wordcodec.codec_s":     codec,
		"wordcodec.codec_frac":  codec / pwall,
		"wordcodec.words_per_s": ratio(float64(tr.sums.codecWords), codec),

		"go.allocs":     float64(pl.mallocs),
		"go.num_gc":     float64(pl.numGC),
		"go.gc_pause_s": pl.gcPause.Seconds(),

		"costmodel.ops_residual":         float64(tr.predOps - tr.measOps),
		"costmodel.wall_pred_over_meas":  ratio(tr.predWall.Seconds(), wall),
		"costmodel.stall_pred_over_meas": ratio(tr.predStl.Seconds(), stall),

		"sortalg.passes":             float64(pl.info.passes),
		"sortalg.speedup_vs_extsort": 0,
	}
	if s.budget {
		// The iteration's self time: what is left of p·wall once the
		// program's compute, the codec and the recorded stall are taken
		// out. The four add up to p·wall by construction.
		m["core.other_s"] = pwall - compute - codec - stall
		m["core.other_frac"] = m["core.other_s"] / pwall
	}
	return m
}
