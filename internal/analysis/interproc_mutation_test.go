package analysis_test

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/detorder"
	"repro/internal/analysis/hotpathalloc"
	"repro/internal/analysis/ioerrcheck"
	"repro/internal/analysis/iopurity"
)

// writeTree materialises a multi-package source tree under testdata
// (inside the module, so the loader resolves repro/... imports) and
// returns the root directory pattern. The literal TREE in each source is
// replaced by the tree's import prefix, so a root file can import its
// own randomly-named dep subpackage.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir, err := os.MkdirTemp("testdata", "mutation-*")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	prefix := "repro/internal/analysis/" + filepath.ToSlash(dir)
	for rel, src := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.ReplaceAll(src, "TREE", prefix)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return "./" + dir
}

// runMode runs the analyzer with (interproc=true) or without
// (interproc=false) computed effect summaries. The false mode replays
// the old intraprocedural behavior — summaries reduced to marker facts,
// Pass.Interprocedural unset — so a test can prove a finding is one the
// pre-summary analyzer missed.
func runMode(t *testing.T, a *analysis.Analyzer, dir string, interproc bool) []analysis.Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := analysis.Load(fset, dir)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	sums := analysis.Summaries{}
	analysis.ComputeSummaries(fset, pkgs, []*analysis.Analyzer{a}, sums)
	if !interproc {
		stripped := analysis.Summaries{}
		for k, s := range sums {
			stripped[k] = &analysis.FuncSummary{Markers: s.Markers}
		}
		sums = stripped
	}
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		if !pkg.Root {
			continue
		}
		for _, terr := range pkg.TypeErrs {
			t.Fatalf("type error in mutated source: %v", terr)
		}
		pass := &analysis.Pass{
			Analyzer:        a,
			Fset:            fset,
			Files:           pkg.Syntax,
			Pkg:             pkg.Types,
			TypesInfo:       pkg.TypesInfo,
			Summaries:       sums,
			Interprocedural: interproc,
			UsedWaivers:     map[token.Pos]bool{},
		}
		pass.SetReport(func(d analysis.Diagnostic) { diags = append(diags, d) })
		if err := a.Run(pass); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
	}
	return diags
}

// interMutations are cross-function contract violations, one per
// analyzer. Each case must be invisible to the intraprocedural run
// (summaries reduced to marker facts) and caught by the summary-based
// run — proving the interprocedural pass finds what an intraprocedural
// one provably misses.
var interMutations = []struct {
	name     string
	analyzer *analysis.Analyzer
	files    map[string]string
	wantSub  string
}{
	{
		// The callee carries the hotpath marker, so the old marker-closure
		// rule trusts it; only the allocation summary sees the make behind
		// the claim — and it lives in another package, reached via facts.
		name:     "hotpathalloc-lying-marker",
		analyzer: hotpathalloc.Analyzer,
		files: map[string]string{
			"m.go": `package m

import "TREE/dep"

// hot is the hot-path caller; the marked callee satisfies the old
// intraprocedural closure rule.
//
// emcgm:hotpath
func hot(n int) []int {
	return dep.Claimed(n)
}
`,
			"dep/dep.go": `package dep

// Claimed carries the marker but allocates anyway.
//
// emcgm:hotpath
func Claimed(n int) []int { return make([]int, n) }
`,
		},
		wantSub: "despite its emcgm:hotpath marker",
	},
	{
		// The deterministic kernel has no direct nondeterminism; the
		// wall-clock read hides one call down in an unmarked helper.
		name:     "detorder-clock-through-helper",
		analyzer: detorder.Analyzer,
		files: map[string]string{
			"m.go": `package m

import "time"

// kernel is in deterministic scope but calls nothing suspicious
// directly.
//
// emcgm:deterministic
func kernel() int64 {
	return stamp()
}

func stamp() int64 { return time.Now().UnixNano() }
`,
		},
		wantSub: "reaches a wall-clock read in deterministic scope (via m.stamp",
	},
	{
		// Same shape for the purity contract: the os.Stat is one hop away.
		name:     "iopurity-os-through-helper",
		analyzer: iopurity.Analyzer,
		files: map[string]string{
			"m.go": `package m

import "os"

// kernel is in deterministic scope; the OS escape is in the helper.
//
// emcgm:deterministic
func kernel(path string) int64 {
	return size(path)
}

func size(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
`,
		},
		wantSub: "reaches the operating system in deterministic scope (via m.size",
	},
	{
		// flush is not in an I/O package, so the old rule never looks at
		// it; its summary says it surfaces a WriteBlocks error the caller
		// drops.
		name:     "ioerrcheck-dropped-through-wrapper",
		analyzer: ioerrcheck.Analyzer,
		files: map[string]string{
			"m.go": `package m

import "repro/internal/pdm"

func flush(arr *pdm.DiskArray, reqs []pdm.BlockReq, bufs [][]pdm.Word) error {
	return arr.WriteBlocks(reqs, bufs)
}

func driver(arr *pdm.DiskArray, reqs []pdm.BlockReq, bufs [][]pdm.Word) {
	flush(arr, reqs, bufs)
}
`,
		},
		wantSub: "surfaces an I/O error that is dropped (via m.flush",
	},
}

// TestInterproceduralCatchesMissed runs each cross-function violation in
// both modes: the intraprocedural replay must stay silent (otherwise the
// case proves nothing) and the summary-based run must report it with the
// expected witness text.
func TestInterproceduralCatchesMissed(t *testing.T) {
	for _, m := range interMutations {
		t.Run(m.name, func(t *testing.T) {
			dir := writeTree(t, m.files)
			if diags := runMode(t, m.analyzer, dir, false); len(diags) != 0 {
				t.Fatalf("intraprocedural %s already catches this case (%s): it proves nothing",
					m.analyzer.Name, diags[0].Message)
			}
			diags := runMode(t, m.analyzer, dir, true)
			if len(diags) == 0 {
				t.Fatalf("interprocedural %s missed the cross-function violation", m.analyzer.Name)
			}
			if !strings.Contains(diags[0].Message, m.wantSub) {
				t.Errorf("diagnostic %q does not contain %q", diags[0].Message, m.wantSub)
			}
			t.Logf("%s: %s", m.analyzer.Name, diags[0].Message)
		})
	}
}
