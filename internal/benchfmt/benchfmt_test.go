package benchfmt

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func baseline() *File {
	f := New("test", Params{N: 1 << 14, V: 8, P: 4, D: 2, B: 64})
	f.Add("pipeline/mem/sync", 3,
		WallMetric(100*time.Millisecond, 120*time.Millisecond),
		ExactMetric("parallel_ios", "ops", 5000))
	return f
}

func TestRoundTrip(t *testing.T) {
	f := baseline()
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Version != Version || got.Tool != "test" || len(got.Benchmarks) != 1 {
		t.Fatalf("round trip mangled file: %+v", got)
	}
	if m := got.Find("pipeline/mem/sync").Metric("parallel_ios"); m == nil || m.Value != 5000 {
		t.Fatalf("metric lost in round trip: %+v", m)
	}
}

func TestReadRejectsUnknownVersion(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("Read accepted an unknown schema version")
	}
}

// TestCompareVerdicts pins the three verdict classes on known inputs —
// the golden behaviour the CI gate depends on.
func TestCompareVerdicts(t *testing.T) {
	old := baseline()

	t.Run("exact_regression", func(t *testing.T) {
		nf := baseline()
		nf.Find("pipeline/mem/sync").Metric("parallel_ios").Value = 5001
		rep := Compare(old, nf, Options{})
		if !rep.HasRegression() {
			t.Fatal("an exact-metric drift of one op must be a regression")
		}
		if v := findDelta(t, rep, "parallel_ios").Verdict; v != Regression {
			t.Fatalf("verdict %q, want %q", v, Regression)
		}
	})

	t.Run("wall_noise_within_tol", func(t *testing.T) {
		nf := baseline()
		m := nf.Find("pipeline/mem/sync").Metric("wall")
		m.Value *= 1.05 // +5% < 10% tolerance
		m.Min *= 1.05
		m.Max *= 1.05
		rep := Compare(old, nf, Options{Tol: 0.10})
		if rep.HasRegression() {
			t.Fatal("+5% wall within 10% tolerance must not regress")
		}
		if v := findDelta(t, rep, "wall").Verdict; v != Noise {
			t.Fatalf("verdict %q, want %q", v, Noise)
		}
	})

	t.Run("wall_noise_when_ranges_overlap", func(t *testing.T) {
		// +15% point estimate, but the new best (115ms) is inside the
		// baseline's own 100–120ms spread — indistinguishable from noise.
		nf := baseline()
		m := nf.Find("pipeline/mem/sync").Metric("wall")
		m.Value = float64(115 * time.Millisecond)
		m.Min = m.Value
		m.Max = float64(140 * time.Millisecond)
		rep := Compare(old, nf, Options{Tol: 0.10})
		if v := findDelta(t, rep, "wall").Verdict; v != Noise {
			t.Fatalf("verdict %q, want %q (ranges overlap)", v, Noise)
		}
	})

	t.Run("wall_regression_beyond_noise", func(t *testing.T) {
		nf := baseline()
		m := nf.Find("pipeline/mem/sync").Metric("wall")
		m.Value = float64(200 * time.Millisecond)
		m.Min = m.Value
		m.Max = float64(220 * time.Millisecond)
		rep := Compare(old, nf, Options{Tol: 0.10})
		if v := findDelta(t, rep, "wall").Verdict; v != Regression {
			t.Fatalf("verdict %q, want %q", v, Regression)
		}
	})

	t.Run("wall_improvement", func(t *testing.T) {
		nf := baseline()
		m := nf.Find("pipeline/mem/sync").Metric("wall")
		m.Value = float64(50 * time.Millisecond)
		m.Min = m.Value
		m.Max = float64(60 * time.Millisecond)
		rep := Compare(old, nf, Options{Tol: 0.10})
		if v := findDelta(t, rep, "wall").Verdict; v != Improvement {
			t.Fatalf("verdict %q, want %q", v, Improvement)
		}
		if rep.Improvements != 1 {
			t.Fatalf("improvements = %d, want 1", rep.Improvements)
		}
	})

	t.Run("missing_metric_regresses", func(t *testing.T) {
		nf := New("test", old.Params)
		rep := Compare(old, nf, Options{})
		if !rep.HasRegression() {
			t.Fatal("a vanished benchmark must be a regression")
		}
		if v := findDelta(t, rep, "wall").Verdict; v != Missing {
			t.Fatalf("verdict %q, want %q", v, Missing)
		}
	})

	t.Run("exact_only_ignores_wall", func(t *testing.T) {
		nf := baseline()
		m := nf.Find("pipeline/mem/sync").Metric("wall")
		m.Value *= 10
		m.Min *= 10
		m.Max *= 10
		rep := Compare(old, nf, Options{ExactOnly: true})
		if rep.HasRegression() {
			t.Fatal("-exact-only must ignore wall-time movement")
		}
		if len(rep.Deltas) != 1 || rep.Deltas[0].Metric != "parallel_ios" {
			t.Fatalf("exact-only deltas: %+v", rep.Deltas)
		}
	})
}

// TestPerturbTripsTheGate: the seeded synthetic regression CI injects
// must fail the comparison in both modes.
func TestPerturbTripsTheGate(t *testing.T) {
	old := baseline()
	bad := Perturb(old, 1.5)
	if !Compare(old, bad, Options{}).HasRegression() {
		t.Fatal("perturbed file must regress under the full comparison")
	}
	if !Compare(old, bad, Options{ExactOnly: true}).HasRegression() {
		t.Fatal("perturbed file must regress under -exact-only (exact counts shift by one)")
	}
	// The original must be untouched (Perturb copies).
	if old.Find("pipeline/mem/sync").Metric("parallel_ios").Value != 5000 {
		t.Fatal("Perturb mutated its input")
	}
}

func TestWriteTextSummarises(t *testing.T) {
	old := baseline()
	rep := Compare(old, Perturb(old, 1.5), Options{})
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "regression:") || !strings.Contains(out, "compared 2 metrics") {
		t.Fatalf("unexpected report text:\n%s", out)
	}
}

func findDelta(t *testing.T, rep *Report, metric string) Delta {
	t.Helper()
	for _, d := range rep.Deltas {
		if d.Metric == metric {
			return d
		}
	}
	t.Fatalf("metric %q not in report: %+v", metric, rep.Deltas)
	return Delta{}
}
