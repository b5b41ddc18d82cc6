package graph

import (
	"fmt"
	"math/bits"

	"repro/internal/cgm"
	"repro/internal/rec"
	"repro/internal/workload"
)

// Tags for the tree-contraction program.
const (
	tExpr     int64 = iota + 300 // node: A=id, B=parent, C=code, D=children/pending, X=a, Y=b
	tParentOf                    // A=child, B=parent
	tValUp                       // A=parent, B=value, C=from child
	tFormQ                       // A=target, B=requester
	tFormA                       // A=requester, B=status, C=new pending, D=responder, X=a, Y=b (or X=value)
	tPendingN                    // A=pending count at sender
	tResult                      // A=id, B=value
)

// Node status values packed into C alongside the operator.
const (
	stBinary = iota // waiting for both children
	stUnary         // linear form (a·x + b) over the pending child
	stDone          // resolved to a value (in X)
)

func packCode(op byte, status int64, notified bool) int64 {
	n := int64(0)
	if notified {
		n = 1
	}
	return int64(op)<<16 | status<<1 | n
}
func unpackCode(c int64) (op byte, status int64, notified bool) {
	return byte(c >> 16), (c >> 1) & 0x7fff, c&1 == 1
}

func packKids(l, r int64) int64         { return l<<31 | r }
func unpackKids(d int64) (int64, int64) { return d >> 31, d & (1<<31 - 1) }

// exprEval evaluates a binary +/× expression tree by parallel tree
// contraction: RAKE (resolved children push values to their parents) and
// COMPRESS (chains of unary nodes, each a linear form a·x+b over its one
// unresolved child, shortcut by pointer doubling — linear forms compose
// associatively, over Z/2⁶⁴ exactly). Both happen every round, so the
// contraction finishes in O(log n) rounds (Miller–Reif), which the
// simulation turns into O((N log N)/(pDB)) I/Os — Figure 5, Group C1's
// "tree contraction, expression tree evaluation" row.
//
// Termination is data-driven: every VP broadcasts its pending-node count
// each round; when the global count observed in the inbox is zero, all
// VPs finish simultaneously.
type exprEval struct {
	N int // node-id space
}

func (p exprEval) Init(vp *cgm.VP[rec.R], input []rec.R) {
	vp.State = append([]rec.R(nil), input...)
}

func (p exprEval) cap() int {
	if p.N < 2 {
		return 8
	}
	return 20*bits.Len(uint(p.N)) + 40
}

func (p exprEval) Round(vp *cgm.VP[rec.R], round int, inbox [][]rec.R) ([][]rec.R, bool) {
	if round > p.cap() {
		panic(fmt.Sprintf("graph: tree contraction did not converge in %d rounds", round))
	}
	v := vp.V
	idx := map[int64]int{}
	for i, r := range vp.State {
		if r.Tag == tExpr {
			idx[r.A] = i
		}
	}
	node := func(id int64) *rec.R { return &vp.State[idx[id]] }

	out := make([][]rec.R, v)
	send := func(dst int, r rec.R) { out[dst] = append(out[dst], r) }
	ownerOf := func(id int64) int { return cgm.Owner(p.N, v, int(id)) }

	// Apply a resolved value to node n from child `from`.
	applyValue := func(nd *rec.R, from, val int64) {
		op, status, notified := unpackCode(nd.C)
		switch status {
		case stBinary:
			l, r := unpackKids(nd.D)
			if from != l && from != r {
				return
			}
			other := l
			if from == l {
				other = r
			}
			// Become unary: '+' → x+val ; '*' → val·x.
			var a, b int64
			if op == '+' {
				a, b = 1, val
			} else {
				a, b = val, 0
			}
			nd.C = packCode(op, stUnary, notified)
			nd.D = other
			nd.X, nd.Y = rec.I2F(a), rec.I2F(b)
		case stUnary:
			if from != nd.D {
				return // we composed past this child; its value is already folded in
			}
			a, b := rec.F2I(nd.X), rec.F2I(nd.Y)
			nd.C = packCode(op, stDone, notified)
			nd.X = rec.I2F(a*val + b)
		case stDone:
			// Already resolved; ignore.
		}
	}

	globalPending := int64(0)
	sawPending := false
	for _, msg := range inbox {
		for _, m := range msg {
			switch m.Tag {
			case tParentOf:
				node(m.A).B = m.B
			case tPendingN:
				globalPending += m.A
				sawPending = true
			}
		}
	}
	for _, msg := range inbox {
		for _, m := range msg {
			switch m.Tag {
			case tValUp:
				applyValue(node(m.A), m.C, m.B)
			case tFormQ:
				t := node(m.A)
				_, status, _ := unpackCode(t.C)
				send(ownerOf(m.B), rec.R{Tag: tFormA, A: m.B, B: status, C: t.D, D: m.A, X: t.X, Y: t.Y})
			case tFormA:
				nd := node(m.A)
				_, status, notified := unpackCode(nd.C)
				if status != stUnary || m.D != nd.D {
					// Stale reply: we already composed past (or resolved)
					// the responder. A node may answer twice because the
					// requester re-queries every round until a reply
					// arrives; accepting the duplicate would compose the
					// same linear form twice.
					break
				}
				op := byte('+')
				a, b := rec.F2I(nd.X), rec.F2I(nd.Y)
				switch m.B {
				case stDone:
					val := rec.F2I(m.X)
					nd.C = packCode(op, stDone, notified)
					nd.X = rec.I2F(a*val + b)
				case stUnary:
					// Compose: self(a,b) ∘ child(a',b') = (a·a', a·b' + b).
					a2, b2 := rec.F2I(m.X), rec.F2I(m.Y)
					nd.X, nd.Y = rec.I2F(a*a2), rec.I2F(a*b2+b)
					nd.D = m.C
				}
			}
		}
	}

	if round >= 2 && sawPending && globalPending == 0 {
		return nil, true
	}

	// Send phase.
	pending := int64(0)
	for i := range vp.State {
		nd := &vp.State[i]
		if nd.Tag != tExpr {
			continue
		}
		if round == 0 {
			_, status, _ := unpackCode(nd.C)
			if status == stBinary {
				l, r := unpackKids(nd.D)
				send(ownerOf(l), rec.R{Tag: tParentOf, A: l, B: nd.A})
				send(ownerOf(r), rec.R{Tag: tParentOf, A: r, B: nd.A})
			}
			if status != stDone {
				pending++
			}
			continue
		}
		op, status, notified := unpackCode(nd.C)
		switch status {
		case stDone:
			if !notified && nd.A != 0 && nd.B >= 0 {
				send(ownerOf(nd.B), rec.R{Tag: tValUp, A: nd.B, B: rec.F2I(nd.X), C: nd.A})
				nd.C = packCode(op, stDone, true)
			}
		case stUnary:
			pending++
			send(ownerOf(nd.D), rec.R{Tag: tFormQ, A: nd.D, B: nd.A})
		case stBinary:
			pending++
		}
	}
	for d := 0; d < v; d++ {
		send(d, rec.R{Tag: tPendingN, A: pending})
	}
	return out, false
}

func (p exprEval) Output(vp *cgm.VP[rec.R]) []rec.R {
	var outs []rec.R
	for _, r := range vp.State {
		if r.Tag == tExpr {
			_, status, _ := unpackCode(r.C)
			if status == stDone {
				outs = append(outs, rec.R{Tag: tResult, A: r.A, B: rec.F2I(r.X)})
			}
		}
	}
	return outs
}

func (p exprEval) MaxContextItems(n, v int) int { return 2*((n+v-1)/v) + v + 16 }

// ExprEval evaluates the expression tree (root = node 0) by parallel tree
// contraction on the given executor.
func ExprEval(e *rec.Exec, nodes []workload.ExprNode) (int64, error) {
	n := len(nodes)
	if n == 0 {
		return 0, fmt.Errorf("graph: empty expression")
	}
	in := make([]rec.R, n)
	for i, nd := range nodes {
		r := rec.R{Tag: tExpr, A: int64(i), B: -1}
		if nd.Op == 0 {
			r.C = packCode('+', stDone, false)
			r.X = rec.I2F(nd.Value)
		} else {
			r.C = packCode(nd.Op, stBinary, false)
			r.D = packKids(nd.L, nd.R)
		}
		in[i] = r
	}
	outs, err := e.Run(exprEval{N: n}, scatterByID(in, n, e.V))
	if err != nil {
		return 0, err
	}
	for _, part := range outs {
		for _, r := range part {
			if r.Tag == tResult && r.A == 0 {
				return r.B, nil
			}
		}
	}
	return 0, fmt.Errorf("graph: contraction finished without resolving the root")
}
