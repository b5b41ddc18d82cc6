package experiments

import (
	"path/filepath"
	"slices"
	"testing"
)

// TestDepthFigure runs the wall-clock figure at a small scale and holds
// its shape: one row per (substrate, k), the PDM count the same at every
// depth of a substrate, a fixed depth resolving to its own ring, syscalls
// only where disks are files, and those files under Scale.DiskDir.
func TestDepthFigure(t *testing.T) {
	dir := t.TempDir()
	s := Scale{N: 8192, V: 8, P: 2, B: 64, DiskDir: dir}
	tb, err := DepthSweep(s)
	if err != nil {
		t.Fatal(err)
	}
	col := func(name string) int {
		i := slices.Index(tb.Columns, name)
		if i < 0 {
			t.Fatalf("no %q column in %v", name, tb.Columns)
		}
		return i
	}
	disks, depth, ring, ios, sys := col("disks"), col("depth"), col("ring"), col("parallel I/Os"), col("syscalls")

	subs := []string{"mem", "mem+delay", "file"}
	ks := []string{"1", "2", "4", "8", "auto"}
	if len(tb.Rows) != len(subs)*len(ks) {
		t.Fatalf("%d rows, want %d (substrates %v × depths %v)", len(tb.Rows), len(subs)*len(ks), subs, ks)
	}
	for i, row := range tb.Rows {
		sub, k := subs[i/len(ks)], ks[i%len(ks)]
		if row[disks] != sub || row[depth] != k {
			t.Fatalf("row %d is (%s, %s), want (%s, %s)", i, row[disks], row[depth], sub, k)
		}
		if first := tb.Rows[i-i%len(ks)]; row[ios] != first[ios] {
			t.Errorf("%s k=%s: %s parallel I/Os, k=1 has %s", sub, k, row[ios], first[ios])
		}
		if k != "auto" && row[ring] != k {
			t.Errorf("%s k=%s: ring %s", sub, k, row[ring])
		}
		if (row[sys] != "0") != (sub == "file") {
			t.Errorf("%s k=%s: %s syscalls", sub, k, row[sys])
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.disk"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != s.P*2 {
		t.Errorf("disk files under DiskDir: %v, want one per (processor, disk)", files)
	}
}
