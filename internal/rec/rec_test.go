package rec

import (
	"testing"
	"testing/quick"

	"repro/internal/cgm"
	"repro/internal/pdm"
)

func TestCodecRoundTrip(t *testing.T) {
	c := Codec{}
	if c.Words() != 7 {
		t.Fatalf("Words = %d", c.Words())
	}
	r := R{Tag: 5, A: -1, B: 1 << 60, C: 7, D: -9, X: 3.25, Y: -0.5}
	buf := make([]pdm.Word, 7)
	c.Encode(buf, r)
	if got := c.Decode(buf); got != r {
		t.Fatalf("round trip %+v != %+v", got, r)
	}
}

func TestCodecProperty(t *testing.T) {
	if err := quick.Check(func(tag, a, b, cc, d int64, x, y float64) bool {
		c := Codec{}
		r := R{Tag: tag, A: a, B: b, C: cc, D: d, X: x, Y: y}
		buf := make([]pdm.Word, 7)
		c.Encode(buf, r)
		got := c.Decode(buf)
		// NaN compares unequal; compare bit patterns via I2F/F2I.
		return got.Tag == r.Tag && got.A == r.A && got.B == r.B &&
			got.C == r.C && got.D == r.D &&
			F2I(got.X) == F2I(r.X) && F2I(got.Y) == F2I(r.Y)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestI2FExactness(t *testing.T) {
	if err := quick.Check(func(x int64) bool { return F2I(I2F(x)) == x }, nil); err != nil {
		t.Error(err)
	}
}

// echo program over R records for Exec plumbing.
type echoR struct{}

func (echoR) Init(vp *cgm.VP[R], input []R) { vp.State = append([]R(nil), input...) }
func (echoR) Round(vp *cgm.VP[R], round int, inbox [][]R) ([][]R, bool) {
	if round == 0 {
		out := make([][]R, vp.V)
		for _, r := range vp.State {
			out[(int(r.A)+1)%vp.V] = append(out[(int(r.A)+1)%vp.V], r)
		}
		vp.State = nil
		return out, false
	}
	for _, m := range inbox {
		vp.State = append(vp.State, m...)
	}
	return nil, true
}
func (echoR) Output(vp *cgm.VP[R]) []R { return vp.State }

func TestExecAccumulatesAcrossPhases(t *testing.T) {
	in := make([]R, 32)
	for i := range in {
		in[i] = R{A: int64(i)}
	}
	e := NewEM(4, 2, 2, 8)
	if _, err := e.Run(echoR{}, Scatter(in, 4)); err != nil {
		t.Fatal(err)
	}
	ops1 := e.IO.ParallelOps
	if ops1 == 0 {
		t.Fatal("no I/O in phase 1")
	}
	if _, err := e.Run(echoR{}, Scatter(in, 4)); err != nil {
		t.Fatal(err)
	}
	if e.IO.ParallelOps <= ops1 {
		t.Errorf("phase 2 did not accumulate: %d then %d", ops1, e.IO.ParallelOps)
	}
	if e.Rounds != 4 {
		t.Errorf("Rounds = %d, want 4 (2 phases × 2)", e.Rounds)
	}
}

// Every field of the executor's Config reaches the machine: a phase runs
// on the disks NewDisk supplies, and an M too small for one working set
// fails the phase.
func TestExecPassesConfigThrough(t *testing.T) {
	in := make([]R, 32)
	for i := range in {
		in[i] = R{A: int64(i)}
	}
	e := NewEM(4, 2, 2, 8)
	disks := 0
	e.NewDisk = func(proc, disk int) pdm.Disk {
		disks++
		return pdm.NewMemDisk(8)
	}
	if _, err := e.Run(echoR{}, Scatter(in, 4)); err != nil {
		t.Fatal(err)
	}
	if disks != 4 {
		t.Errorf("NewDisk supplied %d disks, want P·D = 4", disks)
	}
	e.M = 1
	if _, err := e.Run(echoR{}, Scatter(in, 4)); err == nil {
		t.Error("a phase ran with M = 1 word")
	}
}

func TestExecBalancedMode(t *testing.T) {
	in := make([]R, 64)
	for i := range in {
		in[i] = R{A: int64(i)}
	}
	e := NewEM(4, 2, 2, 8)
	e.Balanced = true
	outs, err := e.Run(echoR{}, Scatter(in, 4))
	if err != nil {
		t.Fatal(err)
	}
	got := Flatten(outs)
	if len(got) != len(in) {
		t.Fatalf("balanced run lost records: %d of %d", len(got), len(in))
	}
	if e.Rounds < 3 {
		t.Errorf("balanced rounds = %d, want ≥ 3 (doubling)", e.Rounds)
	}
}

func TestFlattenAndScatter(t *testing.T) {
	in := make([]R, 10)
	for i := range in {
		in[i] = R{A: int64(i)}
	}
	parts := Scatter(in, 3)
	flat := Flatten(parts)
	if len(flat) != 10 {
		t.Fatalf("flatten length %d", len(flat))
	}
	for i, r := range flat {
		if r.A != int64(i) {
			t.Fatalf("order lost at %d", i)
		}
	}
}
