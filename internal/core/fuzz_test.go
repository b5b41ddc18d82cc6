package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/cgm"
	"repro/internal/wordcodec"
)

// chaosProgram is a deterministic pseudo-random CGM program: each round
// every virtual processor shuffles its items to destinations chosen by a
// seeded hash of (round, item), mixes received values into its state, and
// finishes after K rounds. It exists to drive the machines through
// arbitrary communication patterns — skewed, sparse, empty, all-to-all —
// and check that the EM simulation is observationally identical to the
// in-memory runtime on ALL of them.
type chaosProgram struct {
	Seed int64
	K    int
}

func mix(x int64) int64 {
	x ^= x >> 33
	x *= -0x61c8864680b583eb
	x ^= x >> 29
	x *= -0x3b314601e57a13ad
	x ^= x >> 32
	return x
}

func (c chaosProgram) Init(vp *cgm.VP[int64], input []int64) {
	vp.State = append([]int64(nil), input...)
}

func (c chaosProgram) Round(vp *cgm.VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	// Fold in everything received, tagged by sender for order sensitivity.
	for src, msg := range inbox {
		for k, x := range msg {
			vp.State = append(vp.State, x+int64(src)+int64(k%3))
		}
	}
	if round == c.K {
		// Keep a digest so outputs stay small but order-sensitive.
		var digest int64 = 1
		for _, x := range vp.State {
			digest = mix(digest ^ x)
		}
		vp.State = []int64{digest, int64(len(vp.State))}
		return nil, true
	}
	out := make([][]int64, vp.V)
	keep := vp.State[:0]
	for i, x := range vp.State {
		h := mix(c.Seed ^ int64(round*131+i)*2654435761 ^ x)
		switch h % 3 {
		case 0: // keep locally
			keep = append(keep, x)
		default: // ship to a pseudo-random destination
			d := int(uint64(h) % uint64(vp.V))
			out[d] = append(out[d], mix(x))
		}
	}
	vp.State = keep
	return out, false
}

func (c chaosProgram) Output(vp *cgm.VP[int64]) []int64 { return vp.State }

// TestChaosEquivalence drives random communication patterns through the
// in-memory runtime, the sequential machine, the parallel machine at
// several p, and the balanced variants — all must agree exactly.
func TestChaosEquivalence(t *testing.T) {
	codec := wordcodec.I64{}
	if err := quick.Check(func(seed int64, n16 uint16, v8, k8 uint8) bool {
		v := []int{2, 4, 8}[int(v8)%3]
		n := int(n16)%300 + v
		k := int(k8)%4 + 1
		prog := chaosProgram{Seed: seed, K: k}
		in := make([]int64, n)
		for i := range in {
			in[i] = mix(seed + int64(i))
		}
		parts := cgm.Scatter(in, v)

		ref, err := cgm.Run[int64](prog, v, parts)
		if err != nil {
			t.Logf("cgm.Run: %v", err)
			return false
		}
		check := func(res *Result[int64], tag string) bool {
			if len(res.Outputs) != len(ref.Outputs) {
				t.Logf("%s: partition count", tag)
				return false
			}
			for i := range ref.Outputs {
				if len(res.Outputs[i]) != len(ref.Outputs[i]) {
					t.Logf("%s: vp %d length", tag, i)
					return false
				}
				for j := range ref.Outputs[i] {
					if res.Outputs[i][j] != ref.Outputs[i][j] {
						t.Logf("%s: vp %d item %d", tag, i, j)
						return false
					}
				}
			}
			return true
		}

		// The chaos program can concentrate items; allow worst-case slots.
		// CheckedIO zeroes the decode arena after every superstep, so a
		// reference kept past it is a mismatch here.
		cfg := Config{V: v, P: 1, D: 2, B: 8, MaxMsgItems: 4 * n, CheckedIO: true}
		em := sized[int64]{prog, 8*n + 16}
		sres, err := RunSeq[int64](em, codec, cfg, parts)
		if err != nil || !check(sres, "seq") {
			t.Logf("seq: %v", err)
			return false
		}
		for _, p := range []int{2, v} {
			if v%p != 0 {
				continue
			}
			pcfg := cfg
			pcfg.P = p
			pres, err := RunPar[int64](em, codec, pcfg, parts)
			if err != nil || !check(pres, fmt.Sprintf("par p=%d", p)) {
				t.Logf("par p=%d: %v", p, err)
				return false
			}
		}
		bcfg := cfg
		bcfg.Balanced = true
		bcfg.MaxHItems = 8 * n
		bres, err := RunSeq[int64](em, codec, bcfg, parts)
		if err != nil || !check(bres, "balanced seq") {
			t.Logf("balanced: %v", err)
			return false
		}
		return true
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestChaosDeterminism: the machines must be bit-for-bit reproducible —
// identical outputs AND identical I/O accounting across repeated runs.
func TestChaosDeterminism(t *testing.T) {
	prog := chaosProgram{Seed: 99, K: 3}
	in := make([]int64, 200)
	for i := range in {
		in[i] = mix(int64(i))
	}
	const v = 4
	cfg := Config{V: v, P: 2, D: 2, B: 8, MaxMsgItems: 800}
	var first *Result[int64]
	for trial := 0; trial < 3; trial++ {
		res, err := RunPar[int64](sized[int64]{prog, 1616}, wordcodec.I64{}, cfg, cgm.Scatter(in, v))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		if res.IO != first.IO || res.Rounds != first.Rounds || res.MaxTracks != first.MaxTracks {
			t.Fatalf("trial %d accounting differs: %+v vs %+v", trial, res.IO, first.IO)
		}
		for i := range first.Outputs {
			for j := range first.Outputs[i] {
				if res.Outputs[i][j] != first.Outputs[i][j] {
					t.Fatalf("trial %d output differs at vp %d", trial, i)
				}
			}
		}
	}
}
