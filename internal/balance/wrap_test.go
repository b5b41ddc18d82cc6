package balance_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/balance"
	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/wordcodec"
)

// scripted keeps everything it receives and, until round rounds, sends
// send(id, v, r)[d] items to each VP d — a nil outbox when send returns
// nil, one of len(send(id, v, r)) messages otherwise. Each item names its round, source, destination and position, so a
// delivery that misplaces one changes the output.
type scripted struct {
	rounds int
	send   func(id, v, r int) []int
}

func (scripted) Init(vp *cgm.VP[int64], input []int64) { vp.State = append([]int64(nil), input...) }

func (p scripted) Round(vp *cgm.VP[int64], r int, inbox [][]int64) ([][]int64, bool) {
	for _, m := range inbox {
		vp.State = append(vp.State, m...)
	}
	if r == p.rounds {
		return nil, true
	}
	sizes := p.send(vp.ID, vp.V, r)
	if sizes == nil {
		return nil, false
	}
	out := make([][]int64, len(sizes))
	for d, n := range sizes {
		for k := 0; k < n; k++ {
			out[d] = append(out[d], int64(r)<<40|int64(vp.ID)<<30|int64(d)<<20|int64(k)+1)
		}
	}
	return out, false
}

func (scripted) Output(vp *cgm.VP[int64]) []int64 { return vp.State }

// MaxContextItems declares μ: a context keeps everything its VP receives,
// and no case sends a VP more than 512 items.
func (scripted) MaxContextItems(int, int) int { return 512 }

// TestWrapEdgeCases runs programs whose h-relations would expose a stale
// or misread size matrix — VPs that alternate nil and non-nil outboxes,
// rounds in which only some VPs send, empty messages, one VP, a program
// done at round 0 — balanced on the in-memory runtime and under RunPar
// with CheckedIO at p = 1 and 2, against the plain in-memory run.
func TestWrapEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		v    int
		prog scripted
	}{
		// VP 0 sends, is silent twice, sends twice, …: a nil outbox two
		// rounds after one that sent, where the matrix of that parity
		// still holds its row.
		{"alternating nil outboxes", 4, scripted{6, func(id, v, r int) []int {
			if ((r+1)/2+id)%2 == 1 {
				return nil
			}
			return []int{(id + r) % 5, 7, 0, (id + 3*r) % 11}
		}}},
		{"some VPs send", 4, scripted{3, func(id, v, r int) []int {
			if r == 1 && id != 2 {
				return nil
			}
			return []int{9 - id, 3, id + r, 13}
		}}},
		{"empty messages", 4, scripted{4, func(id, v, r int) []int {
			if r%2 == 0 {
				return make([]int, v)
			}
			return []int{0, id * 6, 0, 17}
		}}},
		{"ragged three", 3, scripted{3, func(id, v, r int) []int {
			return []int{(id + r) % 4, 0, 2*id + 5}
		}}},
		{"one VP", 1, scripted{3, func(id, v, r int) []int { return []int{r * 10} }}},
		{"done at round 0", 4, scripted{0, nil}},
	}
	for _, c := range cases {
		in := make([]int64, 4*c.v+3)
		for i := range in {
			in[i] = int64(-1 - i)
		}
		parts := cgm.Scatter(in, c.v)
		plain, err := cgm.Run[int64](c.prog, c.v, parts)
		if err != nil {
			t.Fatalf("%s: plain: %v", c.name, err)
		}
		wrapped, err := cgm.Run(balance.Wrap[int64](c.prog), c.v, parts)
		if err != nil {
			t.Fatalf("%s: balanced: %v", c.name, err)
		}
		if want := 2*plain.Stats.Rounds - 1; wrapped.Stats.Rounds != want {
			t.Errorf("%s: balanced run took %d rounds, want %d", c.name, wrapped.Stats.Rounds, want)
		}
		check := func(tag string, got [][]int64) {
			for j := range plain.Outputs {
				if !slices.Equal(got[j], plain.Outputs[j]) {
					t.Errorf("%s: vp %d output %v, want %v", tag, j, got[j], plain.Outputs[j])
				}
			}
		}
		check(c.name+" cgm.Run", wrapped.Outputs)
		for _, p := range []int{1, 2} {
			if c.v%p != 0 {
				continue
			}
			cfg := core.Config{V: c.v, P: p, D: 2, B: 4, Balanced: true, CheckedIO: true, MaxMsgItems: 64}
			res, err := core.RunPar[int64](c.prog, wordcodec.I64{}, cfg, parts)
			if err != nil {
				t.Fatalf("%s p=%d: %v", c.name, p, err)
			}
			check(fmt.Sprintf("%s RunPar p=%d", c.name, p), res.Outputs)
		}
	}
}

// TestWrapRejectsMalformedOutbox: an inner outbox of the wrong length is
// the runtime's error under Wrap as it is without, not a routing of the
// messages it has.
func TestWrapRejectsMalformedOutbox(t *testing.T) {
	const v = 4
	bad := scripted{1, func(id, v, r int) []int { return make([]int, v-1) }}
	parts := cgm.Scatter([]int64{1, 2, 3, 4, 5, 6, 7, 8}, v)
	_, err := cgm.Run(balance.Wrap[int64](bad), v, parts)
	if err == nil || !strings.Contains(err.Error(), "outbox of length 3") {
		t.Errorf("cgm.Run: err = %v, want the malformed outbox rejected", err)
	}
	cfg := core.Config{V: v, P: 2, D: 2, B: 4, Balanced: true, MaxMsgItems: 8}
	_, err = core.RunPar[int64](bad, wordcodec.I64{}, cfg, parts)
	if err == nil || !strings.Contains(err.Error(), "outbox of length 3") {
		t.Errorf("RunPar: err = %v, want the malformed outbox rejected", err)
	}
}
