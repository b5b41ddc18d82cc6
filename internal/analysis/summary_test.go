package analysis

import (
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fullSummary populates every FuncSummary field, so the round-trip test
// fails loudly if a new field misses its JSON tag.
func fullSummary() *FuncSummary {
	return &FuncSummary{
		Markers:    []string{"emcgm:deterministic", "emcgm:hotpath"},
		Alloc:      AllocYes,
		AllocChain: []string{"pdm.grow", "make at pdm.go:42"},
		IOErr:      IOErrReturns,
		IOErrChain: []string{"pdm.DiskArray.WriteBlocks at disk.go:7"},
		Caps:       []string{CapOS, CapTime},
		CapChain:   map[string][]string{CapOS: {"os.Stat at x.go:3"}},
	}
}

// TestVetxRoundTrip writes a registry with every field populated and
// reads it back: the facts must survive the trip bit-for-bit.
func TestVetxRoundTrip(t *testing.T) {
	sums := Summaries{
		"repro/internal/pdm.DiskArray.WriteBlocks": fullSummary(),
		"repro/internal/core.Scan":                 {Alloc: AllocFree},
	}
	path := filepath.Join(t.TempDir(), "facts.vetx")
	if err := writeVetx(path, sums); err != nil {
		t.Fatalf("writeVetx: %v", err)
	}
	got := Summaries{}
	if err := readVetx(path, got); err != nil {
		t.Fatalf("readVetx: %v", err)
	}
	if !reflect.DeepEqual(got, sums) {
		t.Errorf("round trip mutated the registry:\n got %+v\nwant %+v", got, sums)
	}
}

// TestVetxDeterministicBytes checks that equal registries serialise to
// identical bytes — the property the go build cache keys on.
func TestVetxDeterministicBytes(t *testing.T) {
	sums := Summaries{"a.F": fullSummary(), "b.G": {Caps: []string{CapNet}}}
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "1.vetx"), filepath.Join(dir, "2.vetx")
	if err := writeVetx(p1, sums); err != nil {
		t.Fatalf("writeVetx: %v", err)
	}
	if err := writeVetx(p2, sums); err != nil {
		t.Fatalf("writeVetx: %v", err)
	}
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if string(b1) != string(b2) {
		t.Errorf("equal registries produced different bytes")
	}
}

// TestVetxRejectsForeignSchema checks the reject-and-recompute
// handshake: a wrong version, wrong magic, or garbage file contributes
// no facts and raises no error.
func TestVetxRejectsForeignSchema(t *testing.T) {
	cases := map[string]string{
		"staleVersion":  `{"magic":"emcgm-vetx","version":2,"funcs":{"a.F":{"alloc":"free"}}}`,
		"futureVersion": `{"magic":"emcgm-vetx","version":99,"funcs":{"a.F":{"alloc":"free"}}}`,
		"wrongMagic":    `{"magic":"other-tool","version":3,"funcs":{"a.F":{"alloc":"free"}}}`,
		"garbage":       `not json at all`,
		"empty":         ``,
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "facts.vetx")
			if err := os.WriteFile(path, []byte(body), 0o666); err != nil {
				t.Fatal(err)
			}
			sums := Summaries{}
			if err := readVetx(path, sums); err != nil {
				t.Fatalf("readVetx must reject quietly, got error: %v", err)
			}
			if len(sums) != 0 {
				t.Errorf("rejected schema leaked %d facts into the registry", len(sums))
			}
		})
	}
}

// TestVetxMergeUnionsMarkers checks the diamond-dependency merge: the
// same package's facts arriving through two vetx files must union
// markers rather than clobber the record.
func TestVetxMergeUnionsMarkers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "facts.vetx")
	if err := writeVetx(path, Summaries{"a.F": {Markers: []string{"emcgm:hotpath"}}}); err != nil {
		t.Fatalf("writeVetx: %v", err)
	}
	sums := Summaries{"a.F": {Markers: []string{"emcgm:deterministic"}, Alloc: AllocFree}}
	if err := readVetx(path, sums); err != nil {
		t.Fatalf("readVetx: %v", err)
	}
	s := sums["a.F"]
	if !s.HasMarker("emcgm:hotpath") || !s.HasMarker("emcgm:deterministic") {
		t.Errorf("merge lost a marker: %v", s.Markers)
	}
	if s.Alloc != AllocFree {
		t.Errorf("merge clobbered the existing record: Alloc=%q", s.Alloc)
	}
}

// TestGenericSummariesShareOrigin loads a package with a generic
// function instantiated at two types and checks that (a) one summary
// record exists, keyed by the origin, and (b) both instantiating
// callers inherit its capability through that shared record.
func TestGenericSummariesShareOrigin(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := Load(fset, "./testdata/src/summary/gen")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	sums := Summaries{}
	caps := &Analyzer{Name: "caps", Summarize: SummarizeCaps}
	ComputeSummaries(fset, pkgs, []*Analyzer{caps}, sums)

	stamp := sums[FuncKey(pkg.PkgPath, "", "Stamp")]
	if stamp == nil || !stamp.HasCap(CapTime) {
		t.Fatalf("origin summary for Stamp missing CapTime: %+v", stamp)
	}
	for _, caller := range []string{"UseInt", "UseString"} {
		s := sums[FuncKey(pkg.PkgPath, "", caller)]
		if s == nil || !s.HasCap(CapTime) {
			t.Errorf("%s did not inherit CapTime through the origin summary: %+v", caller, s)
		}
	}
}
