package core

import (
	"testing"

	"repro/internal/cgm"
	"repro/internal/wordcodec"
)

// TestCheckedIOCleanRun proves the superstep schedule itself satisfies
// the sanitizer's discipline: a full run under CheckedIO (bounds, intra-op
// overlap, read-before-write) completes with identical outputs and
// bit-identical I/O counts. Any layout regression — a context read before
// its first write, a message slot read before its write, an
// overlapping pack — turns into a descriptive error here instead of
// silent corruption.
func TestCheckedIOCleanRun(t *testing.T) {
	const v, n = 4, 36
	in := seq64(n)
	parts := cgm.Scatter(in, v)
	codec := wordcodec.I64{}

	ref, err := cgm.Run[int64](allToAll{k: 3}, v, parts)
	if err != nil {
		t.Fatalf("cgm.Run: %v", err)
	}

	for _, balanced := range []bool{false, true} {
		plain := Config{V: v, P: 1, D: 2, B: 4, Balanced: balanced}
		checked := plain
		checked.CheckedIO = true

		want, err := RunSeq(allToAll{k: 3}, codec, plain, parts)
		if err != nil {
			t.Fatalf("balanced=%v: RunSeq: %v", balanced, err)
		}
		got, err := RunSeq(allToAll{k: 3}, codec, checked, parts)
		if err != nil {
			t.Fatalf("balanced=%v: RunSeq checked: %v", balanced, err)
		}
		sameOutputs(t, "seq/checked", got.Outputs, ref.Outputs)
		if got.IO != want.IO {
			t.Errorf("balanced=%v: checked mode changed I/O accounting: %+v vs %+v", balanced, got.IO, want.IO)
		}

		for _, p := range []int{1, 2, 4} {
			pcfg := Config{V: v, P: p, D: 2, B: 4, Balanced: balanced, CheckedIO: true}
			pres, err := RunPar(allToAll{k: 3}, codec, pcfg, parts)
			if err != nil {
				t.Fatalf("balanced=%v p=%d: RunPar checked: %v", balanced, p, err)
			}
			sameOutputs(t, "par/checked", pres.Outputs, ref.Outputs)
		}
	}
}
