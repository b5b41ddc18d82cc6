package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ModulePath is the module the lint contracts govern; callee summaries
// are consulted only for functions under it.
const ModulePath = "repro"

// obsPath is the nil-receiver observability surface: its calls
// contribute no capabilities (with recording off its methods are
// nil-receiver no-ops).
const obsPath = ModulePath + "/internal/obs"

// InModule reports whether pkgPath belongs to the governed module.
func InModule(pkgPath string) bool {
	return pkgPath == ModulePath || strings.HasPrefix(pkgPath, ModulePath+"/")
}

// SummarizeCaps is the shared Summarize hook computing the capability
// set (FuncSummary.Caps): the ambient-authority and nondeterminism
// sources a function can reach on some call path. Both detorder and
// iopurity install it — the hook is idempotent, so running it once per
// analyzer per fixpoint round is harmless.
//
// Rules:
//
//   - time.Now/Since/Until, global math/rand draws, order-escaping map
//     ranges, and multi-case selects contribute their capability only
//     outside observability guards (`if rec != nil` for *obs.Recorder):
//     guarded nondeterminism can describe the run but not steer it;
//   - calls into os, os/exec, syscall (CapOS) and net... (CapNet) count
//     unconditionally — the outside world stays outside even while
//     recording;
//   - module callees contribute their transitive capability set, except
//     callees in deterministic scope (their own package's lint run
//     enforces the contract — pdm and layout are the sanctioned I/O
//     boundary) and the obs surface;
//   - capabilities found in nested function literals are attributed to
//     the declaring function: a closure built here may run anywhere.
func SummarizeCaps(pass *Pass, fd *ast.FuncDecl, sum *FuncSummary) bool {
	info := pass.TypesInfo
	changed := false
	add := func(cap string, chain []string) {
		if sum.AddCap(cap, chain) {
			changed = true
		}
	}
	WalkStack(fd.Body, func(stack []ast.Node) bool {
		n := stack[len(stack)-1]
		switch n := n.(type) {
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok &&
					!OrderInsensitiveMapRange(info, n) && !RecorderGuarded(info, stack) {
					add(CapMapOrder, []string{PosEntry(pass.Fset, "map range", n.Pos())})
				}
			}
		case *ast.SelectStmt:
			comm := 0
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					comm++
				}
			}
			if comm >= 2 && !RecorderGuarded(info, stack) {
				add(CapSelect, []string{PosEntry(pass.Fset, "select", n.Pos())})
			}
		case *ast.CallExpr:
			capsForCall(pass, stack, n, add)
		}
		return true
	})
	return changed
}

// capsForCall classifies one call expression's capability contribution.
func capsForCall(pass *Pass, stack []ast.Node, call *ast.CallExpr, add func(string, []string)) {
	info := pass.TypesInfo
	fn := Callee(info, call.Fun)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	switch {
	case path == "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			if !RecorderGuarded(info, stack) {
				add(CapTime, []string{PosEntry(pass.Fset, "time."+fn.Name(), call.Pos())})
			}
		}
	case path == "math/rand" || path == "math/rand/v2":
		if GlobalRandDraw(fn) && !RecorderGuarded(info, stack) {
			add(CapRand, []string{PosEntry(pass.Fset, fn.Pkg().Name()+"."+fn.Name(), call.Pos())})
		}
	case path == "os" || path == "os/exec" || path == "syscall":
		add(CapOS, []string{PosEntry(pass.Fset, fn.Pkg().Name()+"."+fn.Name(), call.Pos())})
	case path == "net" || strings.HasPrefix(path, "net/"):
		add(CapNet, []string{PosEntry(pass.Fset, fn.Pkg().Name()+"."+fn.Name(), call.Pos())})
	case InModule(path):
		if path == obsPath {
			return
		}
		csum := pass.SummaryOf(fn)
		if csum == nil || csum.HasMarker("emcgm:deterministic") {
			return
		}
		guarded := RecorderGuarded(info, stack)
		for _, c := range csum.Caps {
			if guarded && c != CapOS && c != CapNet {
				continue
			}
			add(c, Chain(ChainEntry(fn), csum.CapChain[c]))
		}
	}
}

// GlobalRandDraw reports whether fn is a math/rand(/v2) package-level
// function drawing from the shared unseeded source — constructors of
// seeded generators and methods on an explicit *rand.Rand are not
// draws.
func GlobalRandDraw(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	switch fn.Name() {
	case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
		return false
	}
	return true
}

// OrderInsensitiveMapRange reports whether every statement of the range
// body is a commutative accumulation on integers or a write to a
// distinct element indexed by the range key — forms whose result is
// independent of visit order. Floating-point accumulation is not
// exempt: FP addition is not associative, so reordering changes the
// rounded sum.
func OrderInsensitiveMapRange(info *types.Info, rs *ast.RangeStmt) bool {
	key, _ := rs.Key.(*ast.Ident)
	for _, st := range rs.Body.List {
		switch s := st.(type) {
		case *ast.IncDecStmt:
			if !isIntegerType(info.TypeOf(s.X)) {
				return false
			}
		case *ast.AssignStmt:
			switch s.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
				token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
				for _, lhs := range s.Lhs {
					if !isIntegerType(info.TypeOf(lhs)) {
						return false
					}
				}
			case token.ASSIGN:
				if key == nil || key.Name == "_" {
					return false
				}
				for _, lhs := range s.Lhs {
					ix, ok := lhs.(*ast.IndexExpr)
					if !ok {
						return false
					}
					id, ok := ix.Index.(*ast.Ident)
					if !ok || id.Name != key.Name {
						return false
					}
				}
			default:
				return false
			}
		default:
			return false
		}
	}
	return true
}

func isIntegerType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
