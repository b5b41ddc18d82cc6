package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
)

// FuncSummary is the per-function fact record computed bottom-up over the
// call graph and propagated transitively through vetx files (DESIGN.md
// §16). Each field is one effect lattice; the zero value ("" / nil) means
// "unknown", which every consumer must treat conservatively for its own
// polarity: hotpathalloc treats an unknown callee as allocating (it needs
// a proof of freedom), while the capability and I/O-error consumers treat
// unknown as empty (they report only what they can witness).
type FuncSummary struct {
	// Markers are the emcgm: directives from the function's doc comment,
	// plus "emcgm:deterministic" stamped onto every function of a
	// package whose package doc carries that marker — so deterministic
	// scope is visible across package boundaries through vetx alone.
	Markers []string `json:"markers,omitempty"`

	// Alloc is the allocation effect: AllocFree (proven allocation-free
	// under the hot-path rules), AllocObs (allocates only on
	// recorder-guarded observability branches), or AllocYes. AllocChain
	// spells out the witness: intermediate callees first, the offending
	// primitive last.
	Alloc      string   `json:"alloc,omitempty"`
	AllocChain []string `json:"allocChain,omitempty"`

	// IOErr is the I/O-error effect: IOErrNone (makes no I/O calls),
	// IOErrReturns (makes I/O and surfaces the error through its own
	// last error result), or IOErrHandles (makes I/O and disposes of the
	// error itself). Callers may drop the error of an IOErrHandles
	// function but not of an IOErrReturns one.
	IOErr      string   `json:"ioerr,omitempty"`
	IOErrChain []string `json:"ioerrChain,omitempty"`

	// Caps is the sorted transitive capability set: ambient-authority
	// and nondeterminism sources reached on some call path (CapTime,
	// CapRand, CapOS, CapNet, CapMapOrder, CapSelect). CapChain gives a
	// witness path per capability.
	Caps     []string            `json:"caps,omitempty"`
	CapChain map[string][]string `json:"capChain,omitempty"`
}

// Allocation-effect lattice values, ordered AllocFree < AllocObs < AllocYes.
const (
	AllocFree = "free"
	AllocObs  = "obs"
	AllocYes  = "allocates"
)

// I/O-error effect values.
const (
	IOErrNone    = "none"
	IOErrReturns = "returns"
	IOErrHandles = "handles"
)

// Capability names, the members of FuncSummary.Caps.
const (
	CapTime     = "time"
	CapRand     = "rand"
	CapOS       = "os"
	CapNet      = "net"
	CapMapOrder = "maporder"
	CapSelect   = "select"
)

// HasMarker reports whether the summary carries the emcgm: directive.
func (s *FuncSummary) HasMarker(marker string) bool {
	if s == nil {
		return false
	}
	for _, m := range s.Markers {
		if m == marker {
			return true
		}
	}
	return false
}

// AddMarker records the directive once; reports whether it was new.
func (s *FuncSummary) AddMarker(marker string) bool {
	if s.HasMarker(marker) {
		return false
	}
	s.Markers = append(s.Markers, marker)
	sort.Strings(s.Markers)
	return true
}

// HasCap reports whether the capability is in the summary's set.
func (s *FuncSummary) HasCap(cap string) bool {
	if s == nil {
		return false
	}
	for _, c := range s.Caps {
		if c == cap {
			return true
		}
	}
	return false
}

// AddCap records the capability (keeping Caps sorted) with its witness
// chain; reports whether it was new. The first witness wins: chains are
// diagnostic garnish, not lattice state.
func (s *FuncSummary) AddCap(cap string, chain []string) bool {
	if s.HasCap(cap) {
		return false
	}
	s.Caps = append(s.Caps, cap)
	sort.Strings(s.Caps)
	if len(chain) > 0 {
		if s.CapChain == nil {
			s.CapChain = map[string][]string{}
		}
		s.CapChain[cap] = chain
	}
	return true
}

// Summaries is the module-wide function-summary registry, keyed by
// FuncKey/FuncObjKey.
type Summaries map[string]*FuncSummary

// Ensure returns the summary for key, creating an empty record on first
// use.
func (sums Summaries) Ensure(key string) *FuncSummary {
	s := sums[key]
	if s == nil {
		s = &FuncSummary{}
		sums[key] = s
	}
	return s
}

// HasMarker reports whether the function identified by key carries the
// directive.
func (sums Summaries) HasMarker(key, marker string) bool {
	return sums[key].HasMarker(marker)
}

// Of resolves a function object to its summary; nil for unkeyed objects
// (builtins, locals, interface methods) and for functions with no record.
func (sums Summaries) Of(fn *types.Func) *FuncSummary {
	key := FuncObjKey(fn)
	if key == "" {
		return nil
	}
	return sums[key]
}

// Vetx schema version. VetxVersion participates in the reject-and-
// recompute handshake (readVetx) and keys the CI vetx cache, so bump it
// whenever FuncSummary's encoding or meaning changes — a stale cache
// must never replay facts across an analyzer upgrade.
const (
	vetxMagic   = "emcgm-vetx"
	VetxVersion = 3
)

// vetxFile is the on-disk vetx schema: a magic string and version guard
// the summary table against replay across schema changes.
type vetxFile struct {
	Magic   string    `json:"magic"`
	Version int       `json:"version"`
	Funcs   Summaries `json:"funcs"`
}

// DeclKey builds the summary key of a declaration in pkgPath, mirroring
// FuncObjKey's folding of pointer receivers and generic instantiations.
func DeclKey(pkgPath string, fd *ast.FuncDecl) string {
	return FuncKey(pkgPath, recvName(fd), fd.Name.Name)
}

// ChainEntry renders one call-chain element for diagnostics:
// "pkg.Func" for an intermediate callee.
func ChainEntry(fn *types.Func) string {
	if fn == nil {
		return "?"
	}
	name := fn.Origin().Name()
	if sig, ok := fn.Origin().Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// PosEntry renders a chain leaf "what at file:line" using the base file
// name, so diagnostics stay stable across checkouts.
func PosEntry(fset *token.FileSet, what string, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s at %s:%d", what, filepath.Base(p.Filename), p.Line)
}

// Chain extends a callee's witness chain with the callee itself, capping
// depth so mutually recursive summaries cannot grow chains without
// bound.
func Chain(head string, rest []string) []string {
	const maxChain = 8
	out := append([]string{head}, rest...)
	if len(out) > maxChain {
		out = out[:maxChain]
	}
	return out
}

// FormatChain renders a witness chain as "f → g → h" for diagnostics.
func FormatChain(chain []string) string {
	out := ""
	for i, c := range chain {
		if i > 0 {
			out += " → "
		}
		out += c
	}
	return out
}

// maxSummaryIter bounds the per-package fixpoint. Effects climb finite
// lattices, so convergence is guaranteed; the bound is a backstop
// against a non-monotone Summarize hook looping forever.
const maxSummaryIter = 16

// ComputeSummaries builds the summary records for pkgs — which must be
// in dependency order, callees before callers — into sums. Marker facts
// are collected first (including the package-level deterministic stamp),
// then every analyzer's Summarize hook runs over each function to a
// per-package fixpoint, so mutual recursion inside a package converges
// to the least fixpoint while cross-package effects are read from the
// already-final records of dependencies.
func ComputeSummaries(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer, sums Summaries) {
	for _, pkg := range pkgs {
		collectMarkers(pkg.PkgPath, pkg.Syntax, sums)
	}
	for _, pkg := range pkgs {
		computePackage(fset, pkg, analyzers, sums)
	}
}

func computePackage(fset *token.FileSet, pkg *Package, analyzers []*Analyzer, sums Summaries) {
	pass := &Pass{
		Fset:      fset,
		Files:     pkg.Syntax,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		Summaries: sums,
		// Hooks see partial same-package facts during the fixpoint;
		// Interprocedural tells shared helpers to consult them.
		Interprocedural: true,
		report:          func(Diagnostic) {}, // hooks must not report
	}
	for iter := 0; iter < maxSummaryIter; iter++ {
		changed := false
		for _, a := range analyzers {
			if a.Summarize == nil {
				continue
			}
			pass.Analyzer = a
			for _, f := range pkg.Syntax {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					sum := sums.Ensure(DeclKey(pkg.PkgPath, fd))
					if a.Summarize(pass, fd, sum) {
						changed = true
					}
				}
			}
		}
		if !changed {
			return
		}
	}
}

// readVetx loads one dependency's summary facts and merges them into
// sums. A file whose magic or version does not match the current schema
// is rejected wholesale — its facts are simply absent, and because the
// go vet action cache keys on the tool's build ID, the dependency is
// recomputed under the new schema rather than replayed stale.
func readVetx(path string, sums Summaries) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	var vf vetxFile
	if err := json.Unmarshal(data, &vf); err != nil || vf.Magic != vetxMagic || vf.Version != VetxVersion {
		// Unknown or stale schema: reject and recompute.
		return nil
	}
	for key, s := range vf.Funcs {
		have, ok := sums[key]
		if !ok {
			sums[key] = s
			continue
		}
		// The same package reaches this unit through several dependency
		// edges; both copies were computed from the same source, so only
		// the marker union can differ (and only degenerately).
		for _, m := range s.Markers {
			have.AddMarker(m)
		}
	}
	return nil
}

// writeVetx serialises the summary registry as this unit's facts under
// the versioned schema. encoding/json sorts map keys, so equal
// registries produce identical bytes and the go build cache can reuse
// downstream vet results.
func writeVetx(path string, sums Summaries) error {
	data, err := json.Marshal(&vetxFile{Magic: vetxMagic, Version: VetxVersion, Funcs: sums})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}
