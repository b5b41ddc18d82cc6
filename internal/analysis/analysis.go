// Package analysis is a self-contained static-analysis framework for the
// repository's invariant lint suite. It mirrors the shape of
// golang.org/x/tools/go/analysis — an Analyzer owns a Run function that
// receives a type-checked Pass and reports Diagnostics — but is built
// entirely on the standard library (go/ast, go/types, go/importer plus a
// `go list -export` loader), because the module deliberately has no
// external dependencies.
//
// The suite holds the four contracts that neither the compiler nor a
// test run can see, all interprocedural through per-function summaries
// (summary.go, DESIGN.md §16):
//
//   - hotpathalloc: functions marked `// emcgm:hotpath` must not allocate
//     on their steady-state path (the 0-allocs/op guarantee, checked at
//     lint time rather than only by benchmarks);
//   - detorder: no wall-clock read, global rand draw, order-escaping map
//     range or multi-case select in `emcgm:deterministic` scope;
//   - iopurity: deterministic scope reaches the operating system and the
//     network only through pdm and layout;
//   - ioerrcheck: errors from the pdm/layout/core/rec/obs I/O surfaces
//     must not be silently dropped.
//
// The split-phase, barrier, span and config contracts are held by the
// engine's own tests and runtime checks instead (DESIGN.md §10).
//
// Marker comments recognised in function doc comments and bodies:
//
//	// emcgm:hotpath    — the function must follow the allocation-free
//	//                    discipline (see hotpathalloc for the rules)
//	// emcgm:coldpath   — the annotated statement is exempt: it is an
//	//                    amortised or error path (arena refill, scratch
//	//                    growth) that steady-state operation never takes
//
// The deterministic-scope marker (package or function doc) and the two
// one-statement waivers, `emcgm:orderok` and `emcgm:iopureok`, are
// described with detorder and iopurity; a waiver that suppresses nothing
// is itself reported (waiver.go). Quoted in backticks a marker is prose:
// only a bare word declares anything.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one static check. Name appears in diagnostics; Doc is a
// one-paragraph description shown by the driver's -help.
//
// Summarize, when set, contributes this analyzer's effect facts to the
// per-function summary record: it inspects one declaration, updates the
// fields it owns, and reports whether anything changed. Drivers run the
// hooks to a per-package fixpoint (ComputeSummaries) before any Run, so
// hooks must be monotone over their effect lattice and must not report
// diagnostics.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass) error
	Summarize func(pass *Pass, fd *ast.FuncDecl, sum *FuncSummary) bool
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Summaries maps a function key (see FuncKey) to the function's
	// summary record — markers plus computed effects — for every
	// function of every module package in the load, including
	// dependencies of the package under analysis, so cross-package
	// contracts can be validated without re-analyzing callees.
	Summaries Summaries

	// Interprocedural is set by drivers once Summaries carries computed
	// effects (not just markers). Analyzers fall back to their
	// intraprocedural behavior when false; the mutation tests exploit
	// this to prove what the old passes missed.
	Interprocedural bool

	// UsedWaivers records, across every analyzer of the package, the
	// positions of waiver comments that suppressed at least one
	// diagnostic. The driver's unused-waiver check reports the rest.
	UsedWaivers map[token.Pos]bool

	// report receives diagnostics; set by the driver.
	report func(Diagnostic)
}

// UseWaiver marks the waiver comment at pos as having suppressed a
// diagnostic, exempting it from the unused-waiver check.
func (p *Pass) UseWaiver(pos token.Pos) {
	if p.UsedWaivers != nil {
		p.UsedWaivers[pos] = true
	}
}

// SummaryOf resolves a called function to its summary record; nil for
// unkeyed objects and functions outside the load.
func (p *Pass) SummaryOf(fn *types.Func) *FuncSummary {
	return p.Summaries.Of(fn)
}

// Diagnostic is one finding, anchored at a position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// SetReport installs the diagnostic sink; called by the driver and the
// antest harness before Run.
func (p *Pass) SetReport(fn func(Diagnostic)) { p.report = fn }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// HasMarker reports whether the function identified by key carries the
// given emcgm: directive.
func (p *Pass) HasMarker(key, marker string) bool {
	return p.Summaries.HasMarker(key, marker)
}

// FuncKey builds the marker-registry key of a function: pkgpath.Name for
// package functions, pkgpath.Recv.Name for methods (pointer receivers and
// generic instantiations are folded onto the base named type).
func FuncKey(pkgPath, recv, name string) string {
	if recv == "" {
		return pkgPath + "." + name
	}
	return pkgPath + "." + recv + "." + name
}

// FuncObjKey returns the marker-registry key of a resolved function
// object, or "" when the object is not a module-level named function
// (builtins, locals, interface methods).
func FuncObjKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	origin := fn.Origin()
	recv := ""
	if sig, ok := origin.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return "" // interface or unnamed receiver: not registrable
		}
		recv = named.Obj().Name()
	}
	return FuncKey(fn.Pkg().Path(), recv, origin.Name())
}
