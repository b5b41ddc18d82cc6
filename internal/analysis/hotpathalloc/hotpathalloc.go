// Package hotpathalloc enforces the repository's allocation-free hot-path
// contract: a function whose doc comment carries `// emcgm:hotpath` must
// not heap-allocate on its steady-state path. The contract is what keeps
// BenchmarkDiskArrayOp at 0 allocs/op; this analyzer turns the benchmark
// guarantee into a build-time one.
//
// Inside a marked function the analyzer reports:
//
//   - make, new, and heap-bound composite literals (slice, map, channel
//     literals, and &T{} pointer literals);
//   - append calls that are not the sanctioned scratch idiom
//     `x = append(x, ...)` (self-append growth is amortised by reuse;
//     any other append materialises a new backing array);
//   - function literals (closures capture their environment on the heap);
//   - go statements;
//   - string concatenation and string<->[]byte/[]rune conversions;
//   - implicit interface conversions at call boundaries (boxing) and
//     explicit conversions to interface types;
//   - calls into fmt and other allocating standard-library packages
//     (sync, sync/atomic, math, math/bits, time, runtime and cmp are
//     exempt, as are the unsafe pseudo-functions — compiler intrinsics
//     that reinterpret memory without allocating);
//   - calls to module functions that are not themselves marked
//     `emcgm:hotpath` (so the contract is closed under the call graph;
//     calls into repro/internal/obs are exempt — its methods are
//     nil-receiver no-ops with recording off; their arguments are still
//     checked here).
//
// Exemptions, because the contract is about the steady state:
//
//   - branches dominated by an enabled-observability guard
//     (`if rec != nil { ... }` for a *obs.Recorder) — the 0-allocs
//     guarantee applies with recording off;
//   - branches that terminate by returning a non-nil error or panicking
//     (error construction is cold by definition);
//   - statements annotated `// emcgm:coldpath <reason>` — amortised
//     growth such as arena refill or scratch doubling;
//   - interface and type-parameter method calls (dynamic dispatch cannot
//     be resolved statically; implementations carry their own markers).
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the hotpathalloc analysis.
var Analyzer = &analysis.Analyzer{
	Name:      "hotpathalloc",
	Doc:       "reports heap allocations inside functions marked // emcgm:hotpath",
	Run:       run,
	Summarize: summarizeAlloc,
}

// stdlibAllowed are standard-library packages whose calls are
// allocation-free in the forms the hot paths use.
var stdlibAllowed = map[string]bool{
	"sync": true, "sync/atomic": true,
	"math": true, "math/bits": true,
	"time": true, "runtime": true, "cmp": true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		cold := coldStmts(pass.Fset, file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasHotpathMarker(fd) {
				continue
			}
			checkFunc(pass, fd, cold)
		}
	}
	return nil
}

func hasHotpathMarker(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		for _, f := range strings.Fields(c.Text) {
			if f == "emcgm:hotpath" {
				return true
			}
		}
	}
	return false
}

// coldStmts maps statements annotated // emcgm:coldpath to true, using
// the file's comment map.
func coldStmts(fset *token.FileSet, file *ast.File) map[ast.Node]bool {
	cold := map[ast.Node]bool{}
	cm := ast.NewCommentMap(fset, file, file.Comments)
	for node, groups := range cm {
		for _, g := range groups {
			for _, c := range g.List {
				if strings.Contains(c.Text, "emcgm:coldpath") {
					cold[node] = true
				}
			}
		}
	}
	return cold
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, cold map[ast.Node]bool) {
	info := pass.TypesInfo
	analysis.WalkStack(fd.Body, func(stack []ast.Node) bool {
		n := stack[len(stack)-1]
		if cold[n] {
			return false
		}
		switch n := n.(type) {
		case *ast.BlockStmt:
			// Prune observability-enabled branches and cold error exits.
			if len(stack) >= 2 {
				if ifs, ok := stack[len(stack)-2].(*ast.IfStmt); ok {
					if enabledObsBranch(info, ifs, n) {
						return false
					}
					if n == ifs.Body && errorExit(info, n) {
						return false
					}
				}
			}
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "function literal allocates a closure on the hot path")
			return false
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement allocates a goroutine on the hot path")
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "&composite literal escapes to the heap on the hot path")
					return false
				}
			}
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice, *types.Map, *types.Chan:
				pass.Reportf(n.Pos(), "%s literal allocates on the hot path", typeKindName(info.TypeOf(n)))
				return false
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isNonConstString(info, n) && !parentIsStringConcat(info, stack) {
				pass.Reportf(n.Pos(), "string concatenation allocates on the hot path")
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal && !isCallFun(stack, n) {
				pass.Reportf(n.Pos(), "method value allocates a bound-method closure on the hot path")
			}
		case *ast.CallExpr:
			return checkCall(pass, stack, n)
		}
		return true
	})
}

// enabledObsBranch reports whether block is the recording-enabled branch
// of an if statement guarding on a *obs.Recorder: the then-branch of
// `rec != nil` or the else-branch of `rec == nil`.
func enabledObsBranch(info *types.Info, ifs *ast.IfStmt, block *ast.BlockStmt) bool {
	keys := map[string]bool{}
	if block == ifs.Body {
		condNonNil(info, ifs.Cond, keys)
	} else if ifs.Else != nil && ifs.Else == ast.Node(block) {
		condNil(info, ifs.Cond, keys)
	}
	return len(keys) > 0
}

// errorExit reports whether the block terminates by returning a non-nil
// error or panicking — a cold path by construction.
func errorExit(info *types.Info, block *ast.BlockStmt) bool {
	if len(block.List) == 0 {
		return false
	}
	switch last := block.List[len(block.List)-1].(type) {
	case *ast.ReturnStmt:
		if len(last.Results) == 0 {
			return false
		}
		res := last.Results[len(last.Results)-1]
		if id, ok := res.(*ast.Ident); ok && id.Name == "nil" {
			return false
		}
		return isErrorType(info.TypeOf(res))
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

func checkCall(pass *analysis.Pass, stack []ast.Node, call *ast.CallExpr) bool {
	info := pass.TypesInfo

	// Conversions: T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		dst := tv.Type
		if allocatingConversion(info, dst, call.Args[0]) {
			pass.Reportf(call.Pos(), "conversion to %s allocates on the hot path", dst.String())
		}
		if isInterface(dst) && !isInterface(info.TypeOf(call.Args[0])) {
			pass.Reportf(call.Pos(), "conversion to interface %s boxes on the hot path", dst.String())
		}
		return true
	}

	// Builtins, including the unsafe pseudo-package: unsafe.Slice,
	// unsafe.SliceData and friends are compiler intrinsics that reinterpret
	// existing memory without allocating, which is exactly what the
	// zero-copy block-encoding path relies on.
	if b := builtinObj(info, call.Fun); b != nil {
		switch b.Name() {
		case "make", "new":
			pass.Reportf(call.Pos(), "%s allocates on the hot path (hoist into setup or mark // emcgm:coldpath)", b.Name())
		case "append":
			if !isSelfAppend(stack, call) {
				pass.Reportf(call.Pos(), "append outside the `x = append(x, ...)` scratch idiom allocates on the hot path")
			}
		case "panic":
			return false // terminal; its argument is cold
		}
		return true
	}

	fn := calleeFunc(info, call.Fun)
	if fn == nil {
		// Calls through function values (closures, fields) cannot be
		// checked against the marker registry.
		pass.Reportf(call.Pos(), "call through a function value cannot be verified allocation-free; name the callee and mark it emcgm:hotpath")
		return true
	}
	if dynamicDispatch(info, call.Fun, fn) {
		checkBoxing(pass, info, call, fn)
		return true
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return true
	}
	switch {
	case pkg.Path() == "repro/internal/obs":
		// nil-safe observability surface: a no-op with recording off.
	case strings.HasPrefix(pkg.Path(), "repro/"):
		checkModuleCall(pass, call, fn)
	default:
		if !stdlibAllowed[pkg.Path()] {
			pass.Reportf(call.Pos(), "call into %s may allocate on the hot path", pkg.Path())
		}
	}
	checkBoxing(pass, info, call, fn)
	return true
}

// checkModuleCall applies the closed-under-calls rule to a call into the
// module. With summaries available the callee's computed allocation
// effect decides: a proven allocation-free (or observability-conditional)
// callee is accepted whether or not it carries the marker, and an
// allocating callee is reported with its witness chain — including
// marked callees whose marker its own package's run will also flag.
// Without a usable summary (bodyless functions, intraprocedural mode)
// the marker remains the contract.
func checkModuleCall(pass *analysis.Pass, call *ast.CallExpr, fn *types.Func) {
	key := analysis.FuncObjKey(fn)
	marked := key != "" && pass.HasMarker(key, "emcgm:hotpath")
	if pass.Interprocedural {
		if sum := pass.SummaryOf(fn); sum != nil && sum.Alloc != "" {
			switch sum.Alloc {
			case analysis.AllocYes:
				chain := analysis.Chain(analysis.ChainEntry(fn), sum.AllocChain)
				if marked {
					pass.Reportf(call.Pos(), "call to %s allocates on the hot path despite its emcgm:hotpath marker (via %s)", analysis.ChainEntry(fn), analysis.FormatChain(chain))
				} else {
					pass.Reportf(call.Pos(), "call to %s allocates on the hot path (via %s)", analysis.ChainEntry(fn), analysis.FormatChain(chain))
				}
			}
			return // AllocFree / AllocObs: proven safe, marker optional
		}
	}
	if !marked {
		pass.Reportf(call.Pos(), "call to %s.%s, which is not marked emcgm:hotpath — the allocation-free contract must be closed under calls", fn.Pkg().Path(), fn.Name())
	}
}

// checkBoxing reports concrete arguments passed to interface-typed
// parameters (implicit interface conversion allocates).
func checkBoxing(pass *analysis.Pass, info *types.Info, call *ast.CallExpr, fn *types.Func) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if params.Len() == 0 {
				continue
			}
			slice, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = slice.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || isUntypedNil(info, arg) {
			continue
		}
		if isInterface(pt) && !isTypeParam(pt) && !isInterface(at) {
			pass.Reportf(arg.Pos(), "argument boxes into interface %s on the hot path", pt.String())
		}
	}
}

// builtinObj resolves fun to a builtin object: a universe builtin (plain
// identifier) or an unsafe pseudo-function (selector on the unsafe
// package).
func builtinObj(info *types.Info, fun ast.Expr) *types.Builtin {
	switch f := fun.(type) {
	case *ast.Ident:
		b, _ := info.ObjectOf(f).(*types.Builtin)
		return b
	case *ast.SelectorExpr:
		b, _ := info.ObjectOf(f.Sel).(*types.Builtin)
		return b
	case *ast.ParenExpr:
		return builtinObj(info, f.X)
	}
	return nil
}

// calleeFunc resolves the called function object for plain and selector
// calls, including generic instantiations.
func calleeFunc(info *types.Info, fun ast.Expr) *types.Func {
	switch f := fun.(type) {
	case *ast.Ident:
		fn, _ := info.ObjectOf(f).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.ObjectOf(f.Sel).(*types.Func)
		return fn
	case *ast.ParenExpr:
		return calleeFunc(info, f.X)
	case *ast.IndexExpr:
		return calleeFunc(info, f.X)
	case *ast.IndexListExpr:
		return calleeFunc(info, f.X)
	}
	return nil
}

// dynamicDispatch reports whether the call goes through an interface or
// type-parameter method, which the analyzer cannot resolve statically.
func dynamicDispatch(info *types.Info, fun ast.Expr, fn *types.Func) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return false
	}
	recv := selection.Recv()
	if recv == nil {
		return false
	}
	if _, ok := recv.(*types.TypeParam); ok {
		return true
	}
	_, isIface := recv.Underlying().(*types.Interface)
	_ = fn
	return isIface
}

// isSelfAppend reports the sanctioned idiom `x = append(x, ...)`: the
// enclosing statement is an assignment whose corresponding left-hand side
// is the same expression as append's first argument.
func isSelfAppend(stack []ast.Node, call *ast.CallExpr) bool {
	if len(call.Args) == 0 || len(stack) < 2 {
		return false
	}
	dst := exprString(call.Args[0])
	if dst == "" {
		return false
	}
	assign, ok := stack[len(stack)-2].(*ast.AssignStmt)
	if !ok {
		// allow one level of parens
		if len(stack) >= 3 {
			assign, ok = stack[len(stack)-3].(*ast.AssignStmt)
		}
		if !ok {
			return false
		}
	}
	for i, rhs := range assign.Rhs {
		if rhs == ast.Expr(call) && i < len(assign.Lhs) {
			return exprString(assign.Lhs[i]) == dst
		}
	}
	return false
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprString(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	}
	return ""
}

func isCallFun(stack []ast.Node, sel *ast.SelectorExpr) bool {
	if len(stack) < 2 {
		return false
	}
	call, ok := stack[len(stack)-2].(*ast.CallExpr)
	return ok && call.Fun == ast.Expr(sel)
}

func typeKindName(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	case *types.Chan:
		return "channel"
	}
	return "composite"
}

func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isTypeParam(t types.Type) bool {
	_, ok := t.(*types.TypeParam)
	return ok
}

func isUntypedNil(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return true
	}
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return t.String() == "error" || types.Implements(t, errorIface())
}

var errIface *types.Interface

func errorIface() *types.Interface {
	if errIface == nil {
		errIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	}
	return errIface
}

// parentIsStringConcat suppresses nested concat reports: `a + b + c`
// parses as (a+b)+c and should yield one diagnostic, not two.
func parentIsStringConcat(info *types.Info, stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	p, ok := stack[len(stack)-2].(*ast.BinaryExpr)
	return ok && p.Op == token.ADD && isNonConstString(info, p)
}

func isNonConstString(info *types.Info, e *ast.BinaryExpr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func allocatingConversion(info *types.Info, dst types.Type, arg ast.Expr) bool {
	src := info.TypeOf(arg)
	if src == nil {
		return false
	}
	return (isStringType(dst) && isByteOrRuneSlice(src)) ||
		(isByteOrRuneSlice(dst) && isStringType(src))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune ||
		e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}

// condNonNil / condNil mirror the guard helpers for *obs.Recorder
// conditions (see package analysis).
func condNonNil(info *types.Info, cond ast.Expr, out map[string]bool) {
	analysis.CondNonNilConjuncts(info, cond, out)
}

func condNil(info *types.Info, cond ast.Expr, out map[string]bool) {
	analysis.CondNilDisjuncts(info, cond, out)
}
