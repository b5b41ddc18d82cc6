package geom

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rec"
	"repro/internal/workload"
)

func TestDominanceMatchesOracle(t *testing.T) {
	for _, n := range []int{0, 1, 2, 50, 300} {
		pts := workload.Points(int64(n+1), n)
		w := make([]float64, n)
		for i := range w {
			w[i] = float64(i%7 + 1)
		}
		want := DominanceSeq(pts, w)
		for _, v := range []int{1, 2, 4} {
			got, err := Dominance(rec.NewMem(v), pts, w)
			if err != nil {
				t.Fatalf("n=%d v=%d: %v", n, v, err)
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Fatalf("n=%d v=%d: dom[%d] = %v, want %v", n, v, i, got[i], want[i])
				}
			}
		}
	}
}

func TestDominanceUnderEM(t *testing.T) {
	const n = 120
	pts := workload.Points(3, n)
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	want := DominanceSeq(pts, w)
	e := rec.NewEM(4, 2, 2, 16)
	got, err := Dominance(e, pts, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("dom[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if e.IO.ParallelOps == 0 {
		t.Error("no I/O accumulated")
	}
}

func TestMaxima3DMatchesOracle(t *testing.T) {
	for _, n := range []int{0, 1, 2, 60, 250} {
		pts := workload.Points3(int64(n+7), n)
		want := Maxima3DSeq(pts)
		for _, v := range []int{1, 2, 4} {
			got, err := Maxima3D(rec.NewMem(v), pts)
			if err != nil {
				t.Fatalf("n=%d v=%d: %v", n, v, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d v=%d: maximal[%d] = %v, want %v", n, v, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMaxima3DStaircase(t *testing.T) {
	// Points on a 3D staircase: all maximal.
	var pts []workload.Point3
	for i := 0; i < 20; i++ {
		pts = append(pts, workload.Point3{X: float64(i), Y: float64(20 - i), Z: 5.5})
	}
	got, err := Maxima3D(rec.NewMem(4), pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range got {
		if !m {
			t.Fatalf("staircase point %d not maximal", i)
		}
	}
	// Add one dominating point: everything below it becomes non-maximal.
	pts = append(pts, workload.Point3{X: 100, Y: 100, Z: 100})
	got, err = Maxima3D(rec.NewMem(4), pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if got[i] {
			t.Fatalf("dominated point %d still maximal", i)
		}
	}
	if !got[20] {
		t.Fatal("dominating point not maximal")
	}
}

func TestMaxima3DUnderEM(t *testing.T) {
	pts := workload.Points3(9, 80)
	want := Maxima3DSeq(pts)
	got, err := Maxima3D(rec.NewEM(4, 2, 2, 16), pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("maximal[%d] mismatch", i)
		}
	}
}

func TestGridConstantRounds(t *testing.T) {
	pts := workload.Points(11, 200)
	w := make([]float64, 200)
	for _, v := range []int{2, 8} {
		e := rec.NewMem(v)
		if _, err := Dominance(e, pts, w); err != nil {
			t.Fatal(err)
		}
		// two sorts (3 rounds each) + 4-round finish = constant.
		if e.Rounds > 10 {
			t.Errorf("v=%d: %d rounds, want ≤ 10 (λ = O(1))", v, e.Rounds)
		}
	}
}

func TestDominanceProperty(t *testing.T) {
	if err := quick.Check(func(seed int64, n8, v8 uint8) bool {
		n := int(n8)%80 + 1
		v := int(v8)%5 + 1
		pts := workload.Points(seed, n)
		w := make([]float64, n)
		for i := range w {
			w[i] = float64(i%5) + 0.5
		}
		want := DominanceSeq(pts, w)
		got, err := Dominance(rec.NewMem(v), pts, w)
		if err != nil {
			return false
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMaxima3DProperty(t *testing.T) {
	if err := quick.Check(func(seed int64, n8, v8 uint8) bool {
		n := int(n8)%80 + 1
		v := int(v8)%5 + 1
		pts := workload.Points3(seed, n)
		want := Maxima3DSeq(pts)
		got, err := Maxima3D(rec.NewMem(v), pts)
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
