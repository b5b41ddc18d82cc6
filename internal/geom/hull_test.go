package geom

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rec"
	"repro/internal/workload"
)

// sameHull compares hulls as vertex sets (orders may rotate).
func sameHull(t *testing.T, tag string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: hull size %d, want %d (%v vs %v)", tag, len(got), len(want), got, want)
	}
	g := map[int]bool{}
	for _, i := range got {
		g[i] = true
	}
	for _, i := range want {
		if !g[i] {
			t.Fatalf("%s: hull misses vertex %d", tag, i)
		}
	}
}

func TestHullMatchesOracle(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 200} {
		pts := workload.Points(int64(n+1), n)
		want := HullSeq(pts)
		for _, v := range []int{1, 2, 4} {
			got, err := Hull(rec.NewMem(v), pts)
			if err != nil {
				t.Fatalf("n=%d v=%d: %v", n, v, err)
			}
			sameHull(t, "hull", got, want)
		}
	}
}

func TestHullSquare(t *testing.T) {
	pts := []workload.Point{
		{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 0, Y: 1},
		{X: 0.5, Y: 0.5}, {X: 0.3, Y: 0.7},
	}
	got, err := Hull(rec.NewMem(3), pts)
	if err != nil {
		t.Fatal(err)
	}
	sameHull(t, "square", got, []int{0, 1, 2, 3})
}

func TestHullCircle(t *testing.T) {
	// Every point on the hull — the adversarial case for merging.
	const n = 64
	pts := make([]workload.Point, n)
	for i := range pts {
		a := 2 * math.Pi * float64(i) / n
		pts[i] = workload.Point{X: math.Cos(a), Y: math.Sin(a)}
	}
	got, err := Hull(rec.NewMem(4), pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("circle hull has %d points, want %d", len(got), n)
	}
}

func TestHullUnderEM(t *testing.T) {
	pts := workload.Points(7, 150)
	want := HullSeq(pts)
	e := rec.NewEM(4, 2, 2, 16)
	got, err := Hull(e, pts)
	if err != nil {
		t.Fatal(err)
	}
	sameHull(t, "em", got, want)
	if e.IO.ParallelOps == 0 {
		t.Error("no I/O accumulated")
	}
}

func TestSeparable(t *testing.T) {
	// Clearly separable clusters.
	red := []workload.Point{{X: 0, Y: 0}, {X: 0.1, Y: 0.1}, {X: 0, Y: 0.2}}
	blue := []workload.Point{{X: 5, Y: 5}, {X: 5.1, Y: 4.9}, {X: 4.9, Y: 5.2}}
	sep, err := Separable(rec.NewMem(2), red, blue)
	if err != nil {
		t.Fatal(err)
	}
	if !sep {
		t.Error("separable clusters reported inseparable")
	}
	// Interleaved: blue point inside red hull.
	blue2 := append([]workload.Point{{X: 0.05, Y: 0.1}}, blue...)
	sep2, err := Separable(rec.NewMem(2), red, blue2)
	if err != nil {
		t.Fatal(err)
	}
	if sep2 {
		t.Error("overlapping sets reported separable")
	}
}

func TestSeparableMatchesOracle(t *testing.T) {
	if err := quick.Check(func(seed int64, nr, nb, v8 uint8) bool {
		n1 := int(nr)%15 + 1
		n2 := int(nb)%15 + 1
		v := int(v8)%4 + 1
		red := workload.Points(seed, n1)
		blue := workload.Points(seed+1, n2)
		// Shift blue by a varying offset so both outcomes occur.
		off := float64(seed%3) * 0.8
		for i := range blue {
			blue[i].X += off
			blue[i].Y += off
		}
		want := SeparableSeq(red, blue)
		got, err := Separable(rec.NewMem(v), red, blue)
		return err == nil && got == want
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The inputs quick.Check once found where the oracle was wrong: at nr
// 0xf, nb 0xe1, v8 0x90 this seed draws one red and one blue point (two
// distinct points, so separable), which the oracle's perpendicular-only
// directions missed.
func TestSeparableCases(t *testing.T) {
	for _, tc := range []struct {
		seed      int64
		nr, nb, v int
		want      bool
	}{
		{seed: -2447796123716760802, nr: 1, nb: 1, v: 1, want: true},
	} {
		red := workload.Points(tc.seed, tc.nr)
		blue := workload.Points(tc.seed+1, tc.nb)
		off := float64(tc.seed%3) * 0.8
		for i := range blue {
			blue[i].X += off
			blue[i].Y += off
		}
		if got := SeparableSeq(red, blue); got != tc.want {
			t.Errorf("seed %d: SeparableSeq = %v, want %v", tc.seed, got, tc.want)
		}
		got, err := Separable(rec.NewMem(tc.v), red, blue)
		if err != nil || got != tc.want {
			t.Errorf("seed %d: Separable = %v, %v; want %v", tc.seed, got, err, tc.want)
		}
	}
}

func TestSeparableInDirection(t *testing.T) {
	red := []workload.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}
	blue := []workload.Point{{X: 0, Y: 5}, {X: 1, Y: 6}}
	// Separable along +y, not along +x.
	sepY, err := SeparableInDirection(rec.NewMem(2), red, blue, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sepY {
		t.Error("not separable along y")
	}
	sepX, err := SeparableInDirection(rec.NewMem(2), red, blue, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sepX {
		t.Error("wrongly separable along x")
	}
}

func TestNextAboveMatchesOracle(t *testing.T) {
	for _, n := range []int{0, 1, 20, 100} {
		ss := workload.NonIntersectingSegments(int64(n+2), n)
		qs := workload.Points(int64(n+3), 50)
		want := NextAboveSeq(ss, qs)
		for _, v := range []int{1, 2, 4} {
			got, err := NextAbove(rec.NewMem(v), ss, qs)
			if err != nil {
				t.Fatalf("n=%d v=%d: %v", n, v, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d v=%d: query %d → %d, want %d", n, v, i, got[i], want[i])
				}
			}
		}
	}
}

func TestTrapezoidalDecomposition(t *testing.T) {
	ss := workload.NonIntersectingSegments(9, 40)
	tds, err := TrapezoidalDecomposition(rec.NewMem(4), ss)
	if err != nil {
		t.Fatal(err)
	}
	if len(tds) != 2*len(ss) {
		t.Fatalf("%d trapezoids, want %d", len(tds), 2*len(ss))
	}
	// Spot-check against the oracle.
	qs := make([]workload.Point, len(tds))
	for i, td := range tds {
		qs[i] = workload.Point{X: td.X, Y: td.Y}
	}
	wantAbove := NextAboveSeq(ss, qs)
	for i, td := range tds {
		if td.Above != wantAbove[i] {
			t.Fatalf("endpoint %d: above = %d, want %d", i, td.Above, wantAbove[i])
		}
	}
}

func TestLocatePoints(t *testing.T) {
	// Three horizontal strips: segments at y = 1 and y = 2 bound faces
	// below them; face of seg0 (y=1) is "0", of seg1 (y=2) is "1";
	// queries above everything get -1... below everything see no segment
	// below → -1 as well in this encoding; between strips see the lower
	// segment's face.
	ss := []workload.Segment{
		{X1: 0, Y1: 1, X2: 10, Y2: 1},
		{X1: 0, Y1: 2, X2: 10, Y2: 2},
	}
	faces := []int{10, 20}
	qs := []workload.Point{
		{X: 5, Y: 0.5},  // below both → -1
		{X: 5, Y: 1.5},  // above seg0 → face 10
		{X: 5, Y: 2.5},  // above seg1 → face 20
		{X: 11, Y: 1.5}, // outside x range → -1
	}
	got, err := LocatePoints(rec.NewMem(2), ss, faces, qs)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{-1, 10, 20, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d → %d, want %d", i, got[i], want[i])
		}
	}
}

func TestNextAboveProperty(t *testing.T) {
	if err := quick.Check(func(seed int64, n8, q8, v8 uint8) bool {
		n := int(n8) % 40
		q := int(q8)%30 + 1
		v := int(v8)%5 + 1
		ss := workload.NonIntersectingSegments(seed, n)
		qs := workload.Points(seed+1, q)
		want := NextAboveSeq(ss, qs)
		got, err := NextAbove(rec.NewMem(v), ss, qs)
		if err != nil {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTriangulateMonotone(t *testing.T) {
	for _, n := range []int{1, 2, 10, 60} {
		p := RandomMonotonePolygon(int64(n), n)
		want := p.Area()
		// Sequential reference.
		tris := TriangulateMonotoneSeq(p)
		sum := 0.0
		for _, tr := range tris {
			sum += tr.Area()
		}
		if math.Abs(sum-want) > 1e-9*(1+want) {
			t.Fatalf("n=%d: sequential triangulation area %v, want %v", n, sum, want)
		}
		for _, v := range []int{1, 2, 4} {
			got, err := Triangulate(rec.NewMem(v), p)
			if err != nil {
				t.Fatalf("n=%d v=%d: %v", n, v, err)
			}
			sum := 0.0
			for _, tr := range got {
				if tr.Area() <= 0 {
					t.Fatalf("n=%d v=%d: degenerate triangle", n, v)
				}
				sum += tr.Area()
			}
			if math.Abs(sum-want) > 1e-9*(1+want) {
				t.Fatalf("n=%d v=%d: area %v, want %v", n, v, sum, want)
			}
		}
	}
}

func TestTriangulateUnderEM(t *testing.T) {
	p := RandomMonotonePolygon(5, 30)
	tris, err := Triangulate(rec.NewEM(4, 2, 2, 16), p)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, tr := range tris {
		sum += tr.Area()
	}
	if math.Abs(sum-p.Area()) > 1e-9 {
		t.Fatalf("area %v, want %v", sum, p.Area())
	}
}

func TestHullCollinearPoints(t *testing.T) {
	// All points on one line: the hull degenerates to the two extremes.
	var pts []workload.Point
	for i := 0; i < 20; i++ {
		pts = append(pts, workload.Point{X: float64(i), Y: 2 * float64(i)})
	}
	want := HullSeq(pts)
	for _, v := range []int{1, 2, 4} {
		got, err := Hull(rec.NewMem(v), pts)
		if err != nil {
			t.Fatalf("v=%d: %v", v, err)
		}
		sameHull(t, "collinear", got, want)
	}
}

func TestHullDuplicateXCoordinates(t *testing.T) {
	// Vertical stacks: ties in x exercise the (X, Y, A) ordering.
	var pts []workload.Point
	for i := 0; i < 6; i++ {
		for j := 0; j < 4; j++ {
			pts = append(pts, workload.Point{X: float64(i), Y: float64(j)})
		}
	}
	want := HullSeq(pts)
	got, err := Hull(rec.NewMem(3), pts)
	if err != nil {
		t.Fatal(err)
	}
	sameHull(t, "grid", got, want)
}
