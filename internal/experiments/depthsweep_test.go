package experiments

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestDepthFigure runs the wall-clock figure at a small scale and holds
// its shape: one row per (substrate, k), the PDM count the same at every
// depth of a substrate, a fixed depth resolving to its own ring, syscalls
// only where disks are files, those files under Scale.DiskDir, and auto
// ranked against the best fixed depth only where their walls' ranges part.
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
	wallLo, wallHi := col("wall"), col("wall max")
	walls := func(row []string) (lo, hi time.Duration) {
		var err error
		if lo, err = time.ParseDuration(row[wallLo]); err == nil {
			hi, err = time.ParseDuration(row[wallHi])
		}
		if err != nil || hi < lo {
			t.Fatalf("%s k=%s: walls %s, %s", row[disks], row[depth], row[wallLo], row[wallHi])
		}
		return lo, hi
	}

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
	for i, sub := range subs {
		rows := tb.Rows[i*len(ks) : (i+1)*len(ks)]
		autoLo, autoHi := walls(rows[len(ks)-1])
		var fixedLo, fixedHi time.Duration
		for _, row := range rows[:len(ks)-1] {
			if lo, hi := walls(row); fixedLo == 0 || lo < fixedLo {
				fixedLo, fixedHi = lo, hi
			}
		}
		overlap := autoLo <= fixedHi && fixedLo <= autoHi
		j := slices.IndexFunc(tb.Notes, func(n string) bool { return strings.HasPrefix(n, sub+": auto resolved") })
		if j < 0 {
			t.Fatalf("%s: no ranking note in %v", sub, tb.Notes)
		}
		if strings.Contains(tb.Notes[j], "unresolved") != overlap {
			t.Errorf("%s: note %q, but auto's walls [%v, %v] and the best fixed depth's [%v, %v] overlap: %v",
				sub, tb.Notes[j], autoLo, autoHi, fixedLo, fixedHi, overlap)
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
