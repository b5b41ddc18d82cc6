package core

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cgm"
	"repro/internal/pdm"
	"repro/internal/wordcodec"
)

// rotate circulates each partition around the ring for v rounds.
type rotate struct{ k int }

func (rotate) Init(vp *cgm.VP[int64], input []int64) { vp.State = append([]int64(nil), input...) }
func (p rotate) Round(vp *cgm.VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	if round > 0 {
		src := (vp.ID - 1 + vp.V) % vp.V
		vp.State = append(vp.State[:0], inbox[src]...)
	}
	if round == p.k {
		return nil, true
	}
	out := make([][]int64, vp.V)
	out[(vp.ID+1)%vp.V] = append([]int64(nil), vp.State...)
	return out, false
}
func (p rotate) Output(vp *cgm.VP[int64]) []int64 { return vp.State }

// sized declares μ = mu items (cgm.ContextSizer) for a test program that
// declares none: a run learns its context bound from the program alone.
type sized[T any] struct {
	cgm.Program[T]
	mu int
}

func (s sized[T]) MaxContextItems(int, int) int { return s.mu }

// allToAll sends one item to every VP each round for k rounds, then each
// VP outputs the sum of everything it received.
type allToAll struct{ k int }

func (allToAll) Init(vp *cgm.VP[int64], input []int64) {
	var s int64
	for _, x := range input {
		s += x
	}
	vp.State = []int64{s, 0}
}
func (p allToAll) Round(vp *cgm.VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	for _, m := range inbox {
		for _, x := range m {
			vp.State[1] += x
		}
	}
	if round == p.k {
		return nil, true
	}
	out := make([][]int64, vp.V)
	for d := 0; d < vp.V; d++ {
		out[d] = []int64{vp.State[0] + int64(round)}
	}
	return out, false
}
func (p allToAll) Output(vp *cgm.VP[int64]) []int64 { return []int64{vp.State[1]} }

func seq64(n int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i * 7 % 101)
	}
	return xs
}

func sameOutputs(t *testing.T, tag string, got, want [][]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d output partitions, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: vp %d output length %d, want %d", tag, i, len(got[i]), len(want[i]))
		}
		for k := range want[i] {
			if got[i][k] != want[i][k] {
				t.Fatalf("%s: vp %d item %d = %d, want %d", tag, i, k, got[i][k], want[i][k])
			}
		}
	}
}

// The central contract: both EM machines produce outputs identical to the
// in-memory CGM runtime for the same program, balanced or not.
func TestMachinesMatchCGMRuntime(t *testing.T) {
	const v, n = 4, 36
	in := seq64(n)
	parts := cgm.Scatter(in, v)
	codec := wordcodec.I64{}

	progs := []struct {
		name string
		p    cgm.Program[int64]
	}{
		{"rotate", rotate{k: v}},
		{"allToAll", allToAll{k: 3}},
	}
	for _, pr := range progs {
		ref, err := cgm.Run[int64](pr.p, v, parts)
		if err != nil {
			t.Fatalf("%s: cgm.Run: %v", pr.name, err)
		}
		for _, balanced := range []bool{false, true} {
			cfg := Config{V: v, P: 1, D: 2, B: 4, Balanced: balanced}
			sres, err := RunSeq(pr.p, codec, cfg, parts)
			if err != nil {
				t.Fatalf("%s balanced=%v: RunSeq: %v", pr.name, balanced, err)
			}
			sameOutputs(t, pr.name+"/seq", sres.Outputs, ref.Outputs)

			for _, p := range []int{1, 2, 4} {
				cfg := Config{V: v, P: p, D: 2, B: 4, Balanced: balanced}
				pres, err := RunPar(pr.p, codec, cfg, parts)
				if err != nil {
					t.Fatalf("%s balanced=%v p=%d: RunPar: %v", pr.name, balanced, p, err)
				}
				sameOutputs(t, pr.name+"/par", pres.Outputs, ref.Outputs)
				if p == 1 && pres.CommItems != 0 {
					t.Errorf("%s: p=1 but CommItems = %d", pr.name, pres.CommItems)
				}
				if p > 1 && !balanced && pr.name == "allToAll" && pres.CommItems == 0 {
					t.Errorf("%s: p=%d but no real communication recorded", pr.name, p)
				}
			}
		}
	}
}

func TestSeqIOAccounting(t *testing.T) {
	const v, n = 4, 32
	parts := cgm.Scatter(seq64(n), v)
	cfg := Config{V: v, P: 1, D: 2, B: 4, MaxMsgItems: 8}
	prog := sized[int64]{rotate{k: 2}, 16}
	res, err := RunSeq[int64](prog, wordcodec.I64{}, cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	if res.IO.ParallelOps == 0 {
		t.Fatal("no I/O recorded")
	}
	if res.CtxOps+res.MsgOps != res.IO.ParallelOps {
		t.Errorf("CtxOps %d + MsgOps %d != total %d", res.CtxOps, res.MsgOps, res.IO.ParallelOps)
	}
	if res.MsgOps == 0 {
		t.Error("no message I/O recorded")
	}
	if res.Rounds != 3 {
		t.Errorf("Rounds = %d, want 3", res.Rounds)
	}
	if res.MaxH != 8 { // one partition of 8 items sent/received
		t.Errorf("MaxH = %d, want 8", res.MaxH)
	}
	if res.MaxMsgObserved != 8 || res.MaxCtxObserved != 8 {
		t.Errorf("observed msg=%d ctx=%d, want 8/8", res.MaxMsgObserved, res.MaxCtxObserved)
	}
	if res.Supersteps != 3*v {
		t.Errorf("Supersteps = %d, want %d", res.Supersteps, 3*v)
	}
	// Deterministic content-oblivious schedule: same run again gives the
	// exact same I/O counts.
	res2, err := RunSeq[int64](prog, wordcodec.I64{}, cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.IO != res.IO {
		t.Errorf("I/O not deterministic: %+v vs %+v", res.IO, res2.IO)
	}
}

// TestWholeBlockContext prices by hand what a context of exactly c·B
// one-word items costs: it occupies c blocks, no more, so each move is
// ⌈c/D⌉ parallel I/Os. rotate{k: 2} moves every context four times —
// round 0 writes it, round 1 reads it and writes the neighbour's items over
// it, the terminal round reads it — on both machines alike.
func TestWholeBlockContext(t *testing.T) {
	const v, c, b, d = 4, 4, 4, 2
	parts := cgm.Scatter(seq64(v*c*b), v)
	want := int64(v * 4 * ((c + d - 1) / d))
	seq, err := RunSeq[int64](rotate{k: 2}, wordcodec.I64{}, Config{V: v, D: d, B: b}, parts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunPar[int64](rotate{k: 2}, wordcodec.I64{}, Config{V: v, P: 2, D: d, B: b}, parts)
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range []struct {
		name string
		res  *Result[int64]
	}{{"RunSeq", seq}, {"RunPar p=2", par}} {
		if arm.res.CtxOps != want {
			t.Errorf("%s: CtxOps = %d, want %d: %d contexts of %d whole blocks on %d disks, moved 4 times each",
				arm.name, arm.res.CtxOps, want, v, c, d)
		}
	}
}

// Parallel I/O must actually engage all D disks: fullness should be high
// and total parallel ops should shrink roughly by D when D doubles.
func TestSeqMultiDiskSpeedup(t *testing.T) {
	const v, n = 4, 512
	parts := cgm.Scatter(seq64(n), v)
	ops := map[int]int64{}
	for _, d := range []int{1, 2, 4} {
		cfg := Config{V: v, P: 1, D: d, B: 4, MaxMsgItems: n / v}
		res, err := RunSeq[int64](sized[int64]{rotate{k: 3}, n / v}, wordcodec.I64{}, cfg, parts)
		if err != nil {
			t.Fatal(err)
		}
		ops[d] = res.IO.ParallelOps
		if f := res.IO.Fullness(d); f < 0.8 {
			t.Errorf("D=%d: fullness = %.2f, want ≥ 0.8", d, f)
		}
	}
	if ops[2] > ops[1]*3/5 || ops[4] > ops[2]*3/5 {
		t.Errorf("no parallel speedup: ops = %v", ops)
	}
}

func TestParIOBalancedAcrossProcs(t *testing.T) {
	const v, n = 8, 256
	parts := cgm.Scatter(seq64(n), v)
	cfg := Config{V: v, P: 4, D: 2, B: 4, MaxMsgItems: n / v}
	res, err := RunPar[int64](sized[int64]{rotate{k: 3}, n / v}, wordcodec.I64{}, cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IOPerProc) != 4 {
		t.Fatalf("IOPerProc = %d entries", len(res.IOPerProc))
	}
	var minOps, maxOps int64 = 1 << 62, 0
	for _, s := range res.IOPerProc {
		if s.ParallelOps < minOps {
			minOps = s.ParallelOps
		}
		if s.ParallelOps > maxOps {
			maxOps = s.ParallelOps
		}
	}
	if minOps == 0 {
		t.Fatal("a processor did no I/O")
	}
	if float64(maxOps) > 1.5*float64(minOps) {
		t.Errorf("I/O imbalance across processors: min=%d max=%d", minOps, maxOps)
	}
	if res.Supersteps != res.Rounds*(v/4) {
		t.Errorf("Supersteps = %d, want rounds·v/p = %d", res.Supersteps, res.Rounds*(v/4))
	}
}

// Scalability in p: per-processor I/O must drop as p grows (Theorem 3's
// v/p factor) for a fixed problem.
func TestParPerProcIOScalesDown(t *testing.T) {
	const v, n = 8, 512
	parts := cgm.Scatter(seq64(n), v)
	perProc := map[int]int64{}
	for _, p := range []int{1, 2, 4, 8} {
		cfg := Config{V: v, P: p, D: 2, B: 4, MaxMsgItems: n / v}
		res, err := RunPar[int64](sized[int64]{rotate{k: 3}, n / v}, wordcodec.I64{}, cfg, parts)
		if err != nil {
			t.Fatal(err)
		}
		var maxOps int64
		for _, s := range res.IOPerProc {
			if s.ParallelOps > maxOps {
				maxOps = s.ParallelOps
			}
		}
		perProc[p] = maxOps
	}
	if perProc[2] > perProc[1]*3/5 || perProc[4] > perProc[2]*3/5 {
		t.Errorf("per-processor I/O does not scale down: %v", perProc)
	}
}

func TestConfigValidation(t *testing.T) {
	parts := cgm.Scatter(seq64(8), 4)
	bad := []Config{
		{V: 0, P: 1, D: 1, B: 1},
		{V: 4, P: 3, D: 1, B: 1}, // p does not divide v
		{V: 4, P: 5, D: 1, B: 1}, // p > v
		{V: 4, P: 1, D: 0, B: 1},
		{V: 4, P: 1, D: 1, B: 0},
	}
	for i, cfg := range bad {
		if _, err := RunPar[int64](rotate{k: 1}, wordcodec.I64{}, cfg, parts); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	// Input partition count mismatch.
	if _, err := RunSeq[int64](rotate{k: 1}, wordcodec.I64{}, Config{V: 3, P: 1, D: 1, B: 1}, parts); err == nil {
		t.Error("partition mismatch accepted")
	}
}

func TestMessageOverflowSurfaces(t *testing.T) {
	parts := cgm.Scatter(seq64(32), 4)
	cfg := Config{V: 4, P: 1, D: 2, B: 4, MaxMsgItems: 2} // partitions are 8 items
	_, err := RunSeq[int64](rotate{k: 2}, wordcodec.I64{}, cfg, parts)
	if err == nil || !strings.Contains(err.Error(), "exceeds the slot bound") {
		t.Errorf("err = %v, want slot-bound overflow", err)
	}
	_, err = RunPar[int64](rotate{k: 2}, wordcodec.I64{}, Config{V: 4, P: 2, D: 2, B: 4, MaxMsgItems: 2}, parts)
	if err == nil || !strings.Contains(err.Error(), "exceeds the slot bound") {
		t.Errorf("par err = %v, want slot-bound overflow", err)
	}
}

func TestContextOverflowSurfaces(t *testing.T) {
	parts := cgm.Scatter(seq64(32), 4)
	cfg := Config{V: 4, P: 1, D: 2, B: 4}
	_, err := RunSeq[int64](sized[int64]{rotate{k: 1}, 3}, wordcodec.I64{}, cfg, parts)
	if err == nil || !strings.Contains(err.Error(), "declared bound") {
		t.Errorf("err = %v, want context overflow", err)
	}
}

func TestMemoryLimitEnforced(t *testing.T) {
	parts := cgm.Scatter(seq64(32), 4)
	cfg := Config{V: 4, P: 1, D: 2, B: 4, M: 10, MaxMsgItems: 8}
	_, err := RunSeq[int64](sized[int64]{rotate{k: 1}, 8}, wordcodec.I64{}, cfg, parts)
	if err == nil || !strings.Contains(err.Error(), "exceeds M") {
		t.Errorf("err = %v, want memory limit", err)
	}
}

func TestDiskFaultSurfaces(t *testing.T) {
	parts := cgm.Scatter(seq64(32), 4)
	cfg := Config{
		V: 4, P: 1, D: 2, B: 4, MaxMsgItems: 8,
		NewDisk: func(proc, disk int) pdm.Disk {
			if disk == 1 {
				return pdm.NewFaultyDisk(pdm.NewMemDisk(4), 5)
			}
			return pdm.NewMemDisk(4)
		},
	}
	_, err := RunSeq[int64](sized[int64]{rotate{k: 3}, 8}, wordcodec.I64{}, cfg, parts)
	if !errors.Is(err, pdm.ErrInjected) {
		t.Errorf("err = %v, want injected disk fault", err)
	}
}

func TestFileDiskBackedRun(t *testing.T) {
	dir := t.TempDir()
	parts := cgm.Scatter(seq64(64), 4)
	cfg := Config{
		V: 4, P: 2, D: 2, B: 8, MaxMsgItems: 16,
		NewDisk: func(proc, disk int) pdm.Disk {
			fd, err := pdm.NewFileDisk(filepath.Join(dir, "p"+string(rune('0'+proc))+"d"+string(rune('0'+disk))+".disk"), 8)
			if err != nil {
				t.Fatal(err)
			}
			return fd
		},
	}
	res, err := RunPar[int64](sized[int64]{rotate{k: 4}, 16}, wordcodec.I64{}, cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cgm.Run[int64](rotate{k: 4}, 4, parts)
	if err != nil {
		t.Fatal(err)
	}
	sameOutputs(t, "filedisk", res.Outputs, ref.Outputs)
}

// A program whose state grows: the machine must persist growing contexts
// faithfully across rounds.
type accumulate struct{ k int }

func (accumulate) Init(vp *cgm.VP[int64], input []int64) {
	vp.State = append([]int64(nil), input...)
}
func (p accumulate) Round(vp *cgm.VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	for _, m := range inbox {
		vp.State = append(vp.State, m...)
	}
	if round == p.k {
		return nil, true
	}
	out := make([][]int64, vp.V)
	out[(vp.ID+1)%vp.V] = []int64{int64(vp.ID*100 + round)}
	return out, false
}
func (p accumulate) Output(vp *cgm.VP[int64]) []int64 { return vp.State }
func (p accumulate) MaxContextItems(n, v int) int     { return n/v + 10 }

func TestGrowingContextAndContextSizer(t *testing.T) {
	const v = 4
	parts := cgm.Scatter(seq64(16), v)
	ref, err := cgm.Run[int64](accumulate{k: 3}, v, parts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{V: v, P: 1, D: 2, B: 4, MaxMsgItems: 4}
	res, err := RunSeq[int64](accumulate{k: 3}, wordcodec.I64{}, cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	sameOutputs(t, "accumulate", res.Outputs, ref.Outputs)
}

// Observation 2 ablation: the sequential machine's single-copy message
// matrix (alternating consecutive/staggered placements) uses roughly half
// the message-region disk space of the double-buffered parallel machine
// at p = 1, for identical I/O semantics.
func TestObservation2HalvesFootprint(t *testing.T) {
	const v, n = 8, 512
	parts := cgm.Scatter(seq64(n), v)
	cfg := Config{V: v, P: 1, D: 2, B: 4, MaxMsgItems: 2 * n / (v * v)}
	prog := sized[int64]{allToAll{k: 3}, n / v}
	seqRes, err := RunSeq[int64](prog, wordcodec.I64{}, cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := RunPar[int64](prog, wordcodec.I64{}, cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	sameOutputs(t, "obs2", parRes.Outputs, seqRes.Outputs)
	if seqRes.MaxTracks >= parRes.MaxTracks {
		t.Errorf("single-copy footprint %d tracks not below double-buffered %d",
			seqRes.MaxTracks, parRes.MaxTracks)
	}
	// The message region specifically should be ~2× smaller; overall
	// footprint (with shared context region) must show a clear gap.
	if float64(seqRes.MaxTracks) > 0.8*float64(parRes.MaxTracks) {
		t.Errorf("footprint gap too small: seq %d vs par %d", seqRes.MaxTracks, parRes.MaxTracks)
	}
}

func TestEdgeConfigurations(t *testing.T) {
	in := seq64(24)
	ref, err := cgm.Run[int64](rotate{k: 2}, 4, cgm.Scatter(in, 4))
	if err != nil {
		t.Fatal(err)
	}
	cases := []Config{
		{V: 4, P: 1, D: 1, B: 1},            // single-word blocks
		{V: 4, P: 4, D: 1, B: 3},            // p = v
		{V: 4, P: 2, D: 7, B: 2},            // more disks than blocks per context
		{V: 4, P: 1, D: 2, B: 64},           // block larger than contexts
		{V: 4, P: 2, D: 2, B: 4, M: 100000}, // generous explicit memory
	}
	for i, cfg := range cases {
		res, err := RunPar[int64](rotate{k: 2}, wordcodec.I64{}, cfg, cgm.Scatter(in, 4))
		if err != nil {
			t.Fatalf("case %d (%+v): %v", i, cfg, err)
		}
		sameOutputs(t, "edge", res.Outputs, ref.Outputs)
	}
	// v = 1: a degenerate machine still works.
	one, err := RunSeq[int64](rotate{k: 0}, wordcodec.I64{}, Config{V: 1, P: 1, D: 1, B: 4}, [][]int64{in})
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Output()) != len(in) {
		t.Fatal("v=1 lost items")
	}
}

func TestEmptyInput(t *testing.T) {
	parts := make([][]int64, 4)
	res, err := RunPar[int64](rotate{k: 1}, wordcodec.I64{}, Config{V: 4, P: 2, D: 2, B: 4}, parts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output()) != 0 {
		t.Fatal("empty input produced items")
	}
}

// Balanced runs must respect Theorem 1's slot bound: no observed message
// may exceed h/v + (v−1)/2 + 1 for the configured h.
func TestBalancedSlotInvariant(t *testing.T) {
	const v, n = 8, 1024
	parts := cgm.Scatter(seq64(n), v)
	cfg := Config{V: v, P: 2, D: 2, B: 8, Balanced: true, MaxHItems: 2 * n / v}
	res, err := RunPar[int64](rotate{k: 3}, wordcodec.I64{}, cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	bound := (2*n/v)/v + (v-1)/2 + 1
	if res.MaxMsgObserved > bound {
		t.Errorf("balanced message of %d items exceeds Theorem 1 bound %d", res.MaxMsgObserved, bound)
	}
}
