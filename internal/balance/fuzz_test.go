package balance

import (
	"testing"
)

// FuzzBalancedRouting drives Algorithm 1 with arbitrary h-relations and
// checks the two properties the simulation stakes on it:
//
//  1. Theorem 1's message bound: every superstep-A message from source i
//     is at most sent_i/v + (v−1)/2 items, and every superstep-B message
//     toward destination d is at most recv_d/v + (v−1)/2 items — the
//     staggered round-robin windows of (i+j+ℓ) mod v cannot pile more
//     than (v−1)/2 slack onto one bin. This is what lets fixed-size disk
//     slots hold any balanced message.
//  2. Delivery: after both supersteps every original message arrives at
//     its destination intact and in order.
func FuzzBalancedRouting(f *testing.F) {
	f.Add(uint8(4), []byte{3, 0, 7, 1, 2, 9, 0, 0, 5})
	f.Add(uint8(2), []byte{16})
	f.Add(uint8(9), []byte{})
	f.Fuzz(func(t *testing.T, vRaw uint8, data []byte) {
		v := 2 + int(vRaw)%9 // 2..10 virtual processors

		// Message lengths from the fuzz bytes; values sequential so
		// order and provenance are checkable.
		msgs := make([][][]int64, v)
		next := int64(0)
		for i := 0; i < v; i++ {
			msgs[i] = make([][]int64, v)
			for j := 0; j < v; j++ {
				var l int
				if len(data) > 0 {
					l = int(data[(i*v+j)%len(data)]) % 17
				}
				m := make([]int64, l)
				for k := range m {
					m[k] = next
					next++
				}
				msgs[i][j] = m
			}
		}

		sent := make([]int, v) // items sent by source i
		recv := make([]int, v) // items destined for d
		for i := 0; i < v; i++ {
			for j := 0; j < v; j++ {
				sent[i] += len(msgs[i][j])
				recv[j] += len(msgs[i][j])
			}
		}

		// Superstep A: bins[i][b] travels i → b.
		sizes := sizeMatrix(msgs)
		bins := make([][][]int64, v)
		for i := 0; i < v; i++ {
			bins[i] = PhaseA(i, v, msgs[i], nil)
			for b, bin := range bins[i] {
				if limit := float64(sent[i])/float64(v) + float64(v-1)/2; float64(len(bin)) > limit+1e-9 {
					t.Errorf("v=%d: phase A message %d→%d has %d items, Theorem 1 limit %.2f",
						v, i, b, len(bin), limit)
				}
			}
		}

		// Superstep B: regroup at each intermediate; out[b][d] travels b → d.
		inboxes := make([][][]int64, v)
		outs := make([][][]int64, v)
		for b := 0; b < v; b++ {
			recvA := make([][]int64, v)
			for i := 0; i < v; i++ {
				recvA[i] = bins[i][b]
			}
			outs[b] = PhaseB(b, v, sizes, recvA, nil)
			for d, msg := range outs[b] {
				if limit := float64(recv[d])/float64(v) + float64(v-1)/2; float64(len(msg)) > limit+1e-9 {
					t.Errorf("v=%d: phase B message %d→%d has %d items, Theorem 1 limit %.2f",
						v, b, d, len(msg), limit)
				}
			}
		}
		for d := 0; d < v; d++ {
			recvB := make([][]int64, v)
			for b := 0; b < v; b++ {
				recvB[b] = outs[b][d]
			}
			inboxes[d] = Deliver(d, v, sizes, recvB, nil)
		}

		// Delivery: inboxes[d][s] must be msgs[s][d] verbatim.
		for d := 0; d < v; d++ {
			for s := 0; s < v; s++ {
				want := msgs[s][d]
				got := inboxes[d][s]
				if len(got) != len(want) {
					t.Fatalf("v=%d: message %d→%d delivered %d items, want %d", v, s, d, len(got), len(want))
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("v=%d: message %d→%d item %d = %d, want %d (order broken)",
							v, s, d, k, got[k], want[k])
					}
				}
			}
		}
	})
}
