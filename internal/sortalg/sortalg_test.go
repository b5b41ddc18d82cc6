package sortalg

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/pdm"
	"repro/internal/rec"
	"repro/internal/wordcodec"
	"repro/internal/workload"
)

func checkSorted(t *testing.T, tag string, got, in []int64) {
	t.Helper()
	want := append([]int64(nil), in...)
	slices.Sort(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d items out, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: out[%d] = %d, want %d", tag, i, got[i], want[i])
		}
	}
}

// byRecord is the geometry programs' record sort: the same PSRS under
// rec.Compare.
var byRecord = SorterFunc[rec.R]{Cmp: rec.Compare}

// asRecords carries each key in a record's A, with X and Y zero: rec.Compare
// then ties exactly where the keys do.
func asRecords(keys []int64) []rec.R {
	out := make([]rec.R, len(keys))
	for i, k := range keys {
		out[i] = rec.R{A: k}
	}
	return out
}

// checkSameSlabs runs the record sort on parts as records and requires
// Sorter's result on parts, VP for VP: the two programs share samples,
// splitters and cuts, so their slabs are the same, in as many rounds.
func checkSameSlabs(t *testing.T, tag string, parts [][]int64, want *cgm.Result[int64]) {
	t.Helper()
	rparts := make([][]rec.R, len(parts))
	for i, p := range parts {
		rparts[i] = asRecords(p)
	}
	res, err := cgm.Run[rec.R](byRecord, len(parts), rparts)
	if err != nil {
		t.Fatalf("%s: record sort: %v", tag, err)
	}
	for i, o := range res.Outputs {
		if !slices.Equal(o, asRecords(want.Outputs[i])) {
			t.Fatalf("%s: record slab %d holds %d records, Sorter's %d keys", tag, i, len(o), len(want.Outputs[i]))
		}
	}
	if res.Stats.Rounds != want.Stats.Rounds {
		t.Errorf("%s: record sort rounds = %d, Sorter's %d", tag, res.Stats.Rounds, want.Stats.Rounds)
	}
}

// tiedPoints returns n records with few distinct X and Y, so that most
// ties under rec.Compare are broken by A alone: a permutation of the ids,
// as the geometry programs set it.
func tiedPoints(seed int64, n int) []rec.R {
	ids := workload.Permutation(seed, n)
	out := make([]rec.R, n)
	for i, id := range ids {
		out[i] = rec.R{A: id, X: float64(id * 7 % 5), Y: float64(i % 3)}
	}
	return out
}

// checkRecordsSorted requires got to be in sorted by rec.Compare, record
// for record.
func checkRecordsSorted(t *testing.T, tag string, got, in []rec.R) {
	t.Helper()
	want := slices.Clone(in)
	slices.SortFunc(want, rec.Compare)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: %d records out of rec.Compare's order (%d in)", tag, len(got), len(in))
	}
}

// TestPSRSInMemory sorts keys, and the same keys as records under
// rec.Compare; both in three rounds, to the same slabs. Distinct keys and
// keys of three values: a run of equal keys is cut by source VP and
// position, so only ties show whether each cut searches the right side
// of a splitter's key.
func TestPSRSInMemory(t *testing.T) {
	for _, v := range []int{1, 2, 4, 8} {
		for _, n := range []int{0, 1, 7, v * v * v, 1000} {
			for name, in := range map[string][]int64{
				"distinct": workload.Int64s(int64(v*1000+n), n),
				"ties":     workload.FewDistinctInt64s(int64(v*1000+n), n, 3),
			} {
				tag := fmt.Sprintf("%s v=%d n=%d", name, v, n)
				parts := cgm.Scatter(in, v)
				res, err := cgm.Run[int64](Sorter[int64]{}, v, parts)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				checkSorted(t, tag, res.Output(), in)
				if res.Stats.Rounds != psrsRounds(v) {
					t.Errorf("%s: rounds = %d, want %d", tag, res.Stats.Rounds, psrsRounds(v))
				}
				checkSameSlabs(t, tag, parts, res)
			}
		}
	}
}

// psrsRounds is the rounds a PSRS takes at v VPs: sort and sample, cut by
// the splitters, merge; a single VP only sorts.
func psrsRounds(v int) int {
	if v == 1 {
		return 1
	}
	return 3
}

// TestRecordSortGlobalOrder sorts random points under rec.Compare, each
// with its index as id, and requires slices.SortFunc's order in three
// rounds.
func TestRecordSortGlobalOrder(t *testing.T) {
	for _, v := range []int{1, 2, 4, 8} {
		for _, n := range []int{0, 1, 17, v * v * v, 500} {
			pts := workload.Points(int64(n+v), n)
			in := make([]rec.R, n)
			for i, p := range pts {
				in[i] = rec.R{A: int64(i), X: p.X, Y: p.Y}
			}
			tag := fmt.Sprintf("v=%d n=%d", v, n)
			res, err := cgm.Run[rec.R](byRecord, v, cgm.Scatter(in, v))
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			checkRecordsSorted(t, tag, res.Output(), in)
			if res.Stats.Rounds != psrsRounds(v) {
				t.Errorf("%s: rounds = %d, want %d", tag, res.Stats.Rounds, psrsRounds(v))
			}
		}
	}
}

// TestRecordSortTiesBrokenByID sorts points that tie on X and Y, so that
// the id A alone orders them.
func TestRecordSortTiesBrokenByID(t *testing.T) {
	res, err := cgm.Run[rec.R](byRecord, 2, cgm.Scatter([]rec.R{{A: 3, X: 1}, {A: 1, X: 1}, {A: 2, X: 1}}, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Output() {
		if r.A != int64(i+1) {
			t.Fatalf("tie order wrong: %v", res.Output())
		}
	}
	for _, v := range []int{2, 4, 8} {
		for _, n := range []int{7, v * v * v, 1000} {
			tag := fmt.Sprintf("v=%d n=%d", v, n)
			pts := tiedPoints(int64(v*1000+n), n)
			res, err := cgm.Run[rec.R](byRecord, v, cgm.Scatter(pts, v))
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			checkRecordsSorted(t, tag, res.Output(), pts)
			if res.Stats.Rounds != 3 {
				t.Errorf("%s: rounds = %d, want 3", tag, res.Stats.Rounds)
			}
		}
	}
}

// TestInitCopiesInput holds both PSRS programs to the Init clause of the
// cgm.Program contract: the engine runs round 0 on the State Init left, so
// it must share no memory with the caller's input.
func TestInitCopiesInput(t *testing.T) {
	recs := make([]rec.R, 9)
	for i := range recs {
		recs[i] = rec.R{Tag: 1, A: int64(i + 1), B: int64(i + 2), C: 1, D: 1, X: float64(i%4 + 1), Y: float64(i*i%7 + 1)}
	}
	if err := cgm.InitCopies[rec.R](byRecord, 4, recs); err != nil {
		t.Error("SorterFunc:", err)
	}
	if err := cgm.InitCopies[int64](Sorter[int64]{}, 4, []int64{5, 3, 9, 1, 7, 2}); err != nil {
		t.Error("Sorter:", err)
	}
}

func TestPSRSAdversarialInputs(t *testing.T) {
	const v, n = 4, 512
	inputs := map[string][]int64{
		"sorted":      workload.SortedInt64s(n),
		"reverse":     workload.ReverseInt64s(n),
		"fewDistinct": workload.FewDistinctInt64s(3, n, 3),
		"allEqual":    make([]int64, n),
		"extremes":    {math.MaxInt64, math.MinInt64, 0, -1, 1, math.MaxInt64, math.MinInt64},
	}
	for name, in := range inputs {
		res, err := cgm.Run[int64](Sorter[int64]{}, v, cgm.Scatter(in, v))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkSorted(t, name, res.Output(), in)
	}
}

func TestPSRSBucketBalance(t *testing.T) {
	// With uniform keys and n >> v³, regular sampling keeps every output
	// partition below ~2n/v.
	const v, n = 4, 4096
	in := workload.Int64s(99, n)
	res, err := cgm.Run[int64](Sorter[int64]{}, v, cgm.Scatter(in, v))
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outputs {
		if len(o) > 2*n/v {
			t.Errorf("vp %d holds %d items > 2n/v = %d", i, len(o), 2*n/v)
		}
	}
	if res.Stats.MaxContext > 3*n/v {
		t.Errorf("MaxContext = %d exceeds declared bound", res.Stats.MaxContext)
	}
}

func TestPSRSProperty(t *testing.T) {
	if err := quick.Check(func(xs []int32, v8 uint8) bool {
		v := int(v8)%7 + 1
		in := make([]int64, len(xs))
		for i, x := range xs {
			in[i] = int64(x)
		}
		res, err := cgm.Run[int64](Sorter[int64]{}, v, cgm.Scatter(in, v))
		if err != nil {
			return false
		}
		got := res.Output()
		want := append([]int64(nil), in...)
		slices.Sort(want)
		return slices.Equal(got, want)
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRecordSortProperty sorts arbitrary float64 keys as records' X under
// rec.Compare, on 1 to 7 VPs.
func TestRecordSortProperty(t *testing.T) {
	if err := quick.Check(func(xs []float64, v8 uint8) bool {
		v := int(v8)%7 + 1
		in := make([]rec.R, len(xs))
		for i, x := range xs {
			in[i] = rec.R{A: int64(i), X: x}
		}
		res, err := cgm.Run[rec.R](byRecord, v, cgm.Scatter(in, v))
		if err != nil {
			return false
		}
		want := slices.Clone(in)
		slices.SortFunc(want, rec.Compare)
		return slices.Equal(res.Output(), want)
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// outboxTap records the outbox every virtual processor returns from one
// round of the sorter.
type outboxTap struct {
	Sorter[int64]
	round int
	mu    sync.Mutex // the runtime runs a round's VPs concurrently
	out   map[int][][]int64
}

func (p *outboxTap) Round(vp *cgm.VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	out, done := p.Sorter.Round(vp, round, inbox)
	if round == p.round {
		p.mu.Lock()
		p.out[vp.ID] = out
		p.mu.Unlock()
	}
	return out, done
}

// No VP is told the splitters: each derives them from the samples it was
// sent. They must all derive the same ones, or an item falls between two
// buckets' ranges and the output is sorted only by luck. Seen from the
// round-1 outboxes: in the order of (key, source VP, position in the
// source's sorted partition) that the cuts follow, bucket k of every
// source lies strictly below bucket k+1 of every source, duplicate-heavy
// keys included — a run of equal keys may straddle a cut, but only in
// that order.
func TestPSRSSameSplittersEverywhere(t *testing.T) {
	const n = 3000
	type place struct {
		key           int64
		src, position int
	}
	less := func(a, b place) bool {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.src, b.src), cmp.Compare(a.position, b.position)) < 0
	}
	inputs := map[string][]int64{
		"uniform":     workload.Int64s(21, n),
		"fewDistinct": workload.FewDistinctInt64s(4, n, 5),
		"zipf":        workload.ZipfInt64s(5, n, 40),
		"sorted":      workload.SortedInt64s(n),
		"allEqual":    make([]int64, n),
	}
	for name, in := range inputs {
		for _, v := range []int{2, 5, 8} {
			tap := &outboxTap{round: 1, out: map[int][][]int64{}}
			res, err := cgm.Run[int64](tap, v, cgm.Scatter(in, v))
			if err != nil {
				t.Fatalf("%s v=%d: %v", name, v, err)
			}
			checkSorted(t, name, res.Output(), in)
			start := make([]int, v) // where each source's bucket k begins
			var below *place        // the largest place of buckets 0 … k−1
			for k := 0; k < v; k++ {
				top := below
				for src := 0; src < v; src++ {
					b, at := tap.out[src][k], start[src]
					start[src] += len(b)
					if len(b) == 0 {
						continue
					}
					first, last := place{b[0], src, at}, place{b[len(b)-1], src, at + len(b) - 1}
					if below != nil && !less(*below, first) {
						t.Fatalf("%s v=%d: bucket %d of vp %d starts at %+v, an earlier bucket reaches %+v", name, v, k, src, first, *below)
					}
					if top == nil || less(*top, last) {
						top = &last
					}
				}
				below = top
			}
		}
	}
}

// Partitions the regular sampling has little or nothing to sample from:
// fewer items than processors, none at all, everything in one partition,
// every other partition empty, all but a few items in one
// (TestPSRSAdversarialInputs has the all-equal keys).
func TestPSRSDegeneratePartitions(t *testing.T) {
	const v = 8
	keys := workload.Int64s(31, 600)
	oneHolds := make([][]int64, v)
	oneHolds[5] = keys
	everyOther := make([][]int64, v)
	for i, part := range cgm.Scatter(keys, v/2) {
		everyOther[2*i+1] = part
	}
	skewed := cgm.Scatter(keys[:v], v)
	skewed[0] = append(skewed[0], keys[v:]...)
	for name, parts := range map[string][][]int64{
		"none":       make([][]int64, v),
		"fewerThanV": cgm.Scatter(keys[:v-3], v),
		"oneHolds":   oneHolds,
		"everyOther": everyOther,
		"skewed":     skewed,
	} {
		res, err := cgm.Run[int64](Sorter[int64]{}, v, parts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkSorted(t, name, res.Output(), slices.Concat(parts...))
		if res.Stats.Rounds != 3 {
			t.Errorf("%s: rounds = %d, want 3", name, res.Stats.Rounds)
		}
		checkSameSlabs(t, name, parts, res)
	}
}

// The samples go to everyone, so round 0 is an h-relation of v² items in
// messages of v: both must fit the limits EMSortConfig derives, down to
// the N = v³ slackness the sorter states, as the bucket round does at the
// shapes the figures and the benchmark use.
func TestSorterFitsEMSortConfig(t *testing.T) {
	for _, g := range []struct{ v, n int }{
		{4, 64}, {8, 512}, {16, 4096}, // N = v³
		{8, 1 << 13}, {8, 1 << 14}, {8, 1 << 16}, {8, 1 << 17}, // Figures 3 and 4
		{16, 1 << 18}, {8, 1 << 19}, // the benchmark's v = 16 at a sixteenth of its N; sort_seq_model
	} {
		cfg := EMSortConfig(core.Config{V: g.v, P: 1, D: 2, B: 64}, g.n)
		res, err := cgm.Run[int64](Sorter[int64]{}, g.v, cgm.Scatter(workload.Int64s(int64(g.n), g.n), g.v))
		if err != nil {
			t.Fatalf("%+v: %v", g, err)
		}
		for r, sizes := range res.Stats.SizeMatrixPerRound {
			if m := slices.Max(sizes); m > cfg.MaxMsgItems {
				t.Errorf("%+v round %d: a message of %d items, MaxMsgItems = %d", g, r, m, cfg.MaxMsgItems)
			}
		}
		if h := res.Stats.HPerRound[0]; h != g.v*g.v {
			t.Errorf("%+v: round 0 is an h-relation of %d items, want v² = %d", g, h, g.v*g.v)
		}
		if res.Stats.MaxH > cfg.MaxHItems {
			t.Errorf("%+v: h = %d, MaxHItems = %d", g, res.Stats.MaxH, cfg.MaxHItems)
		}
	}
}

// Round 1's buckets are views of the sender's State, not copies. Each
// machine must still deliver them intact: under CheckedIO (the decode
// arena is zeroed after every superstep, so a view the engine failed to
// copy out reads zeros), through BalancedRouting, and in memory.
func TestPSRSBucketViews(t *testing.T) {
	const n, v = 1 << 13, 8
	in := workload.Int64s(41, n)
	want := slices.Clone(in)
	slices.Sort(want)
	res, err := cgm.Run[int64](Sorter[int64]{}, v, cgm.Scatter(in, v))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Output(), want) {
		t.Fatal("cgm.Run: output differs from slices.Sorted")
	}
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{
		{"checked", core.Config{P: 2, CheckedIO: true}},
		{"balanced", core.Config{P: 2, Balanced: true, CheckedIO: true}},
	} {
		cfg := tc.cfg
		cfg.V, cfg.D, cfg.B = v, 2, 32
		for _, seq := range []bool{false, true} {
			var got []int64
			if seq {
				r, err := core.RunSeq[int64](Sorter[int64]{}, wordcodec.I64{}, EMSortConfig(cfg, n), cgm.Scatter(in, v))
				if err != nil {
					t.Fatalf("%s seq: %v", tc.name, err)
				}
				got = r.Output()
			} else if got, _, err = EMSort(in, wordcodec.I64{}, cfg); err != nil {
				t.Fatalf("%s par: %v", tc.name, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s seq=%v: output differs from slices.Sorted", tc.name, seq)
			}
		}
	}
}

// floatInput is n floats from seed with every 97th a NaN (payloads
// differ) and ±Inf and ±0 among the rest.
func floatInput(seed int64, n int) []float64 {
	r := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		switch {
		case i%97 == 0:
			xs[i] = math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(i))
		case i%89 == 0:
			xs[i] = math.Inf(1 - 2*(i%2))
		case i%31 == 0:
			xs[i] = math.Copysign(0, float64(1-2*(i%2)))
		default:
			xs[i] = r.NormFloat64() * 1e6
		}
	}
	return xs
}

// sameAsSlicesSort reports whether got is in as slices.Sort orders it,
// item by item under cmp.Compare (NaNs equal to each other, and so are −0
// and +0), with every bit pattern of in kept. Neither sort is stable, so
// which of two equal items comes first is not compared.
func sameAsSlicesSort(got, in []float64) bool {
	want := slices.Clone(in)
	slices.Sort(want)
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if cmp.Compare(got[i], want[i]) != 0 {
			return false
		}
	}
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		slices.Sort(out)
		return out
	}
	return slices.Equal(bits(got), bits(want))
}

// PSRS orders floats as slices.Sort does, NaNs first: the local sort, the
// splitters, the bucket cuts and the merge all compare by cmp.Less. Under
// `<` a NaN is unordered and the output came out unsorted. In "nanFirst"
// the NaNs crowd the first partitions, so the sources cut their buckets
// from differently shaped data and must still agree on where a NaN goes;
// its skewed buckets need a larger message limit than EMSortConfig's.
func TestSorterNaNMatchesSlicesSort(t *testing.T) {
	const n = 1 << 14
	nanFirst := floatInput(8, n)
	for i := 0; i < n/16; i++ {
		nanFirst[i] = math.NaN()
	}
	for name, in := range map[string][]float64{"sprinkled": floatInput(7, n), "nanFirst": nanFirst} {
		for _, v := range []int{2, 4, 8} {
			res, err := cgm.Run[float64](Sorter[float64]{}, v, cgm.Scatter(in, v))
			if err != nil {
				t.Fatalf("%s v=%d: %v", name, v, err)
			}
			if !sameAsSlicesSort(res.Output(), in) {
				t.Errorf("%s cgm.Run v=%d: differs from slices.Sort", name, v)
			}
			cfg := core.Config{V: v, P: 2, D: 2, B: 64, MaxMsgItems: n / v}
			got, _, err := EMSort(in, wordcodec.F64{}, cfg)
			if err != nil {
				t.Fatalf("%s RunPar v=%d: %v", name, v, err)
			}
			if !sameAsSlicesSort(got, in) {
				t.Errorf("%s RunPar v=%d: differs from slices.Sort", name, v)
			}
			seq, err := core.RunSeq[float64](Sorter[float64]{}, wordcodec.F64{}, EMSortConfig(cfg, n), cgm.Scatter(in, v))
			if err != nil {
				t.Fatalf("%s RunSeq v=%d: %v", name, v, err)
			}
			if !sameAsSlicesSort(seq.Output(), in) {
				t.Errorf("%s RunSeq v=%d: differs from slices.Sort", name, v)
			}
		}
	}
}

// emShapes are the EM machines both sorts run on: v VPs on p processors
// with d disks each, balanced or not.
var emShapes = []struct {
	v, p, d int
	bal     bool
}{
	{4, 1, 1, false},
	{4, 2, 2, false},
	{8, 4, 2, false},
	{4, 2, 2, true},
}

func TestEMSortSeqAndPar(t *testing.T) {
	const n = 1024
	in := workload.Int64s(5, n)
	for _, tc := range emShapes {
		cfg := core.Config{V: tc.v, P: tc.p, D: tc.d, B: 16, Balanced: tc.bal}
		got, res, err := EMSort(in, wordcodec.I64{}, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		checkSorted(t, "emsort", got, in)
		if res.IO.ParallelOps == 0 {
			t.Errorf("%+v: no I/O recorded", tc)
		}
	}
}

// TestRecordSortUnderEM runs the record sort as the geometry programs run
// it, through rec.Exec on each EM machine shape: in rec.Compare's order,
// with I/O, and in three rounds unless balancing adds its own.
func TestRecordSortUnderEM(t *testing.T) {
	const n = 1024
	for _, tc := range emShapes {
		e := rec.NewEM(tc.v, tc.p, tc.d, 16)
		e.Balanced = tc.bal
		pts := tiedPoints(5, n)
		slabs, err := e.Run(byRecord, rec.Scatter(pts, tc.v))
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		checkRecordsSorted(t, fmt.Sprintf("%+v", tc), rec.Flatten(slabs), pts)
		if e.IO.ParallelOps == 0 {
			t.Errorf("%+v: no I/O recorded", tc)
		}
		if !tc.bal && e.Rounds != 3 {
			t.Errorf("%+v: rounds = %d, want 3", tc, e.Rounds)
		}
	}
}

// The headline claim (Theorem 4): EM-CGM sort uses O(N/(pDB)) parallel
// I/Os per processor. We verify the linear shape: I/Os per processor scale
// ~linearly in N and ~1/(DB), with a constant factor that stays bounded.
func TestEMSortIOLinearInN(t *testing.T) {
	const v, d, b = 4, 2, 16
	ratioAt := func(n int) float64 {
		in := workload.Int64s(11, n)
		_, res, err := EMSort(in, wordcodec.I64{}, core.Config{V: v, P: 1, D: d, B: b})
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.IO.ParallelOps) / (float64(n) / float64(d*b))
	}
	r1 := ratioAt(2048)
	r2 := ratioAt(8192)
	// Linear I/O ⇒ the ratio ops/(N/DB) is roughly constant as N quadruples.
	if r2 > 1.6*r1 {
		t.Errorf("I/O not linear in N: ops/(N/DB) grew from %.2f to %.2f", r1, r2)
	}
}

func TestMergeSortCorrectness(t *testing.T) {
	for _, tc := range []struct{ n, d, b, m int }{
		{0, 2, 4, 64},
		{1, 2, 4, 64},
		{100, 1, 4, 16},  // many runs, multiple passes (fanIn 3)
		{1000, 2, 8, 48}, // fanIn 2
		{1000, 4, 4, 64}, // fanIn 3
		{513, 3, 8, 128}, // odd n
	} {
		arr := pdm.NewMemArray(tc.d, tc.b)
		keys := workload.Uint64s(int64(tc.n+tc.d), tc.n)
		recs := make([]pdm.Word, tc.n)
		copy(recs, keys)
		out, info, err := MergeSort(arr, recs, 1, tc.m)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		want := append([]uint64(nil), keys...)
		slices.Sort(want)
		if len(out) != tc.n {
			t.Fatalf("%+v: %d records out", tc, len(out))
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("%+v: out[%d] = %d, want %d", tc, i, out[i], want[i])
			}
		}
		if tc.n > 0 && info.Records != tc.n {
			t.Errorf("%+v: info.Records = %d", tc, info.Records)
		}
	}
}

func TestMergeSortMultiWordRecords(t *testing.T) {
	const n, rw = 300, 2
	arr := pdm.NewMemArray(2, 8)
	keys := workload.Uint64s(77, n)
	recs := make([]pdm.Word, n*rw)
	for i, k := range keys {
		recs[i*rw] = k
		recs[i*rw+1] = pdm.Word(i) // payload: original index
	}
	out, _, err := MergeSort(arr, recs, rw, 96)
	if err != nil {
		t.Fatal(err)
	}
	// Keys sorted and payloads still attached to their keys.
	for i := 0; i < n; i++ {
		if i > 0 && out[i*rw] < out[(i-1)*rw] {
			t.Fatalf("keys out of order at %d", i)
		}
		orig := int(out[i*rw+1])
		if keys[orig] != out[i*rw] {
			t.Fatalf("payload separated from key at %d", i)
		}
	}
}

func TestMergeSortPassCount(t *testing.T) {
	// fanIn = M/(DB) - 1; runs = ceil(N/chunk). Passes must match
	// ceil(log_fanIn(runs)).
	const n, d, b, m = 4096, 1, 8, 32 // chunk 32 words → 128 runs; fanIn 3
	arr := pdm.NewMemArray(d, b)
	recs := make([]pdm.Word, n)
	copy(recs, workload.Uint64s(13, n))
	_, info, err := MergeSort(arr, recs, 1, m)
	if err != nil {
		t.Fatal(err)
	}
	if info.FanIn != 3 {
		t.Fatalf("FanIn = %d, want 3", info.FanIn)
	}
	wantRuns := (n + m - 1) / m
	if info.Runs != wantRuns {
		t.Fatalf("Runs = %d, want %d", info.Runs, wantRuns)
	}
	wantPasses := 0
	for r := info.Runs; r > 1; r = (r + info.FanIn - 1) / info.FanIn {
		wantPasses++
	}
	if info.Passes != wantPasses {
		t.Errorf("Passes = %d, want %d", info.Passes, wantPasses)
	}
	// Each pass costs ≈ 2·N/(DB) ±(run-boundary slack); check within 2×.
	perPass := 2 * n / (d * b)
	if info.SortOps < int64(perPass*(wantPasses)) || info.SortOps > int64(3*perPass*(wantPasses+1)) {
		t.Errorf("SortOps = %d for %d passes of ~%d", info.SortOps, wantPasses, perPass)
	}
}

func TestMergeSortLogFactorGrows(t *testing.T) {
	// With M fixed and N growing, ops/(N/DB) must grow (the log factor) —
	// this is the baseline the paper's simulation beats.
	const d, b, m = 1, 8, 64
	ratio := func(n int) float64 {
		arr := pdm.NewMemArray(d, b)
		recs := make([]pdm.Word, n)
		copy(recs, workload.Uint64s(3, n))
		_, info, err := MergeSort(arr, recs, 1, m)
		if err != nil {
			t.Fatal(err)
		}
		return float64(info.SortOps) / (float64(n) / float64(d*b))
	}
	small, large := ratio(512), ratio(32768)
	if large <= small {
		t.Errorf("log factor missing: ratio %0.2f at n=512, %0.2f at n=32768", small, large)
	}
}

func TestMergeSortErrors(t *testing.T) {
	arr := pdm.NewMemArray(2, 4)
	if _, _, err := MergeSort(arr, make([]pdm.Word, 5), 2, 64); err == nil {
		t.Error("ragged record array accepted")
	}
	if _, _, err := MergeSort(arr, make([]pdm.Word, 6), 3, 64); err == nil {
		t.Error("record size not dividing B accepted")
	}
	if _, _, err := MergeSort(arr, make([]pdm.Word, 8), 1, 8); err == nil {
		t.Error("tiny memory accepted")
	}
}

func TestMergeSortProperty(t *testing.T) {
	if err := quick.Check(func(xs []uint16) bool {
		arr := pdm.NewMemArray(2, 4)
		recs := make([]pdm.Word, len(xs))
		for i, x := range xs {
			recs[i] = pdm.Word(x)
		}
		out, _, err := MergeSort(arr, recs, 1, 24)
		if err != nil {
			return false
		}
		want := append([]pdm.Word(nil), recs...)
		slices.Sort(want)
		return slices.Equal(out, want)
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMergeRunsTwoBuffers: the merge equals a stable sort of the
// concatenated runs for every run count — none, one, two, odd, sixteen,
// empty runs among them — and uses at most two data-sized buffers however
// many levels it takes: the destination it is given, which the last level
// writes, and one it borrows, from three runs up, whatever the level
// count's parity; it allocates neither. Stability is visible on float64
// zeros: -0 and +0 compare equal, so their sign bits must keep the run
// order.
func TestMergeRunsTwoBuffers(t *testing.T) {
	mkRuns := func(k int) ([][]float64, int) {
		runs := make([][]float64, k)
		total := 0
		for i := range runs {
			m := (i * 7) % 5 // 0, 2, 4, 1, 3, ...: empty runs included
			run := make([]float64, 0, m+2)
			for j := 0; j < m; j++ {
				run = append(run, float64((i*3+j*5)%11-5))
			}
			zero := math.Copysign(0, float64(i%2*2-1)) // -0 in even runs, +0 in odd
			run = append(run, zero, zero)
			slices.Sort(run)
			runs[i] = run
			total += len(run)
		}
		return runs, total
	}
	for _, k := range []int{0, 1, 2, 3, 5, 16} {
		runs, total := mkRuns(k)
		want := slices.Concat(runs...)
		slices.SortStableFunc(want, func(a, b float64) int {
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			}
			return 0
		})
		var lent []float64
		got := make([]float64, total)
		mergeRuns[float64](Sorter[float64]{}, runs, got, func(n int) []float64 {
			lent = make([]float64, n)
			return lent
		})
		if k > 2 && (lent == nil || total > 0 && &got[0] == &lent[0]) {
			t.Fatalf("k=%d: the borrowed buffer is the destination", k)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d items, want %d", k, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("k=%d: item %d = %v (sign %v), want %v (sign %v)", k, i,
					got[i], math.Signbit(got[i]), want[i], math.Signbit(want[i]))
			}
		}
	}
	for _, k := range []int{1, 2, 5, 16} {
		orig, total := mkRuns(k)
		runs := make([][]float64, k)
		dst, scratch := make([]float64, total), make([]float64, total)
		allocs := testing.AllocsPerRun(20, func() {
			copy(runs, orig) // mergeRuns overwrites its argument
			mergeRuns[float64](Sorter[float64]{}, runs, dst, func(n int) []float64 { return scratch[:n] })
		})
		if allocs != 0 {
			t.Errorf("k=%d: %v allocations, want none", k, allocs)
		}
	}
}

// mergeFuzzFloats maps a byte to a float: NaNs with the byte as payload,
// ±Inf, ±0 and a few finite values, so equal items (which only their bits
// tell apart) are common.
var mergeFuzzFloats = []float64{math.NaN(), math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0, -1.5, 1.5, -math.MaxFloat64, math.SmallestNonzeroFloat64, 3}

// checkMerge merges the sorted runs a and b with mergeTwo and compares the
// result, bit for bit, with a stable sort of a then b.
func checkMerge[T cmp.Ordered](t *testing.T, a, b []T, bits func(T) uint64) {
	t.Helper()
	slices.SortStableFunc(a, cmp.Compare[T])
	slices.SortStableFunc(b, cmp.Compare[T])
	want := slices.Concat(a, b)
	slices.SortStableFunc(want, cmp.Compare[T])
	got := make([]T, len(want))
	if n := mergeTwo(got, a, b); n != len(want) {
		t.Fatalf("merged %d items, want %d", n, len(want))
	}
	for i := range want {
		if bits(got[i]) != bits(want[i]) {
			t.Fatalf("item %d of %d: %v, want %v (runs %v and %v)", i, len(want), got[i], want[i], a, b)
		}
	}
}

// FuzzMergeTwo: the bytes before cut make run a, the rest run b, read as
// int64 keys and as floats; the two-ended merge must be a stable merge.
func FuzzMergeTwo(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{3, 4, 3, 4, 0, 0, 9}, uint8(3))
	f.Add([]byte{0x80, 0x7f, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, cut uint8) {
		c := int(cut) % (len(data) + 1)
		ints := make([]int64, len(data))
		floats := make([]float64, len(data))
		for i, d := range data {
			switch d {
			case 0x80:
				ints[i] = math.MinInt64
			case 0x7f:
				ints[i] = math.MaxInt64
			default:
				ints[i] = int64(int8(d))
			}
			floats[i] = mergeFuzzFloats[int(d)%len(mergeFuzzFloats)]
			if math.IsNaN(floats[i]) {
				floats[i] = math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(d))
			}
		}
		checkMerge(t, ints[:c], ints[c:], func(x int64) uint64 { return uint64(x) })
		checkMerge(t, floats[:c], floats[c:], math.Float64bits)
	})
}
