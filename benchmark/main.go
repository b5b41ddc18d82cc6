// Command benchmark is the repository's benchmark: seven whole workloads run
// closed-loop from one process (each iteration starts when the previous one
// has returned and been verified), end-to-end metrics from untraced
// iterations, and per-layer metrics from a separate traced run whose spans
// are all taken here, around calls into the program's public functions.
// README.md has the metric and workload definitions.
//
//	go run ./benchmark                          every workload, both runs, a table
//	go run ./benchmark -workloads sort_mem -out a.json
//	go run ./benchmark -compare a.json b.json   two recordings against the bounds
//	go run ./benchmark -workload sort_mem -seed 3 -seconds 10 -trace 0
//
// The last form is what BENCHMARK.json's command runs: one workload, one
// of the two runs, and one JSON object as the last line of output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	seed := flag.Int64("seed", 1, "workload seed; the program only ever sees the inputs generated from it")
	names := flag.String("workloads", "", "comma-separated workloads to run (default: all seven)")
	flag.StringVar(names, "workload", "", "alias of -workloads")
	seconds := flag.Float64("seconds", 10, "least time to measure per workload and run, in seconds")
	trace := flag.String("trace", "", "0: untraced run only, 1: traced run only; either prints one JSON result line for the single workload named. Default: both runs, a table")
	scratch := flag.String("scratch", "benchmark/scratch", "directory for disk files; a subdirectory is made in it and removed on exit")
	spansOut := flag.String("spans", "", "write the traced run's spans to this file, one JSON object per line")
	out := flag.String("out", "", "write the report as JSON to this file (the input of -compare)")
	cmp := flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 on a regression")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two report files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fmt.Fprintf(os.Stderr, "benchmark: -trace must be 0 or 1 (got %q)\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "benchmark: -seconds must be > 0 (got %g)\n", *seconds)
		return 2
	}
	todo, err := selectSpecs(specs(1), *names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	if *trace != "" && len(todo) != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace prints one workload's result; name it with -workload")
		return 2
	}

	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	// A signal skips the deferred calls, so it removes the disk files itself.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(dir)
		os.Exit(130)
	}()

	b := &bench{
		seed:  *seed,
		dur:   time.Duration(*seconds * float64(time.Second)),
		env:   &env{dir: dir},
		tr:    newTracer(*spansOut != ""),
		walls: map[string]float64{},
	}
	rep := report{Seed: *seed, GoVersion: runtime.Version(), CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	code := 0
	timed, traced := *trace != "1", *trace != "0"
	for _, s := range todo {
		r := b.measure(s, timed, traced)
		if r.Failed > 0 {
			code = 1
		}
		rep.Workloads = append(rep.Workloads, r)
	}
	if *trace == "" {
		b.speedups(rep.Workloads)
		printTable(rep)
	}
	if *spansOut != "" {
		if err := b.tr.writeSpans(*spansOut); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			code = 1
		}
	}
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			code = 1
		}
	}
	if *trace != "" {
		if err := printResultLine(rep.Workloads[0], *trace == "1"); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			code = 1
		}
	}
	return code
}

func selectSpecs(all []*spec, names string) ([]*spec, error) {
	if names == "" {
		return all, nil
	}
	var todo []*spec
	for _, name := range strings.Split(names, ",") {
		i := slices.IndexFunc(all, func(s *spec) bool { return s.name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		todo = append(todo, all[i])
	}
	return todo, nil
}

// bench is the state one process keeps across workloads.
type bench struct {
	seed   int64
	dur    time.Duration
	env    *env
	tr     *tracer
	probed map[string]float64 // the microprobes, measured once
	// walls are the median untraced walls of the workloads measured so far,
	// the two sides of sortalg.speedup_vs_extsort.
	walls map[string]float64
}

// measure sets the workload up and makes the asked-for runs.
func (b *bench) measure(s *spec, timed, traced bool) *result {
	r := &result{Name: s.name}
	reps := 1
	if timed {
		reps = setupReps
	}
	inst, setupSecs := setupPhase(s, b.seed, b.env, reps, r)
	r.DirectIO = s.kind == directBackend && b.env.directIO
	if timed {
		its := timedPhase(inst, b.dur, r)
		if len(its) == 0 {
			return r
		}
		r.EndToEnd = endToEnd(s, its, setupSecs, r)
		b.walls[s.name] = summarise(wallsOf(its)).Median
	}
	if traced {
		inmem := timeInmem(inst, r)
		dur := b.dur
		if timed {
			dur = 0 // the timed run has the long sample; minPairs is enough here
		}
		plain, tracedIts := tracedPhase(s, inst, b.tr, dur, r)
		if len(tracedIts) == 0 {
			return r
		}
		if _, ok := b.walls[s.name]; !ok {
			b.walls[s.name] = summarise(wallsOf(plain)).Median
		}
		r.PerLayer = perLayer(s, plain, tracedIts, inmem)
		if b.probed == nil {
			var err error
			if b.probed, err = probes(b.env); err != nil {
				r.fail("microprobes", err)
				b.probed = map[string]float64{}
			}
		}
		for k, v := range b.probed {
			r.PerLayer[k] = v
		}
		if s.kind == directBackend {
			// The rate the workload's disk calls ran at, against the best
			// the same device gives a 64-track batch.
			r.PerLayer["pdm.roofline_frac"] = ratio(r.PerLayer["pdm.mb_per_s"], r.PerLayer["pdm.roofline_mb_per_s"])
		}
		if !timed {
			b.counterpart(s, r)
		}
	}
	return r
}

// speedupPair names the two workloads whose walls make the paper's
// end-to-end claim: the simulated CGM sort against the PDM mergesort on
// the same device and disk count.
var speedupPair = [2]string{"sort_direct", "extsort_direct"}

// speedups fills sortalg.speedup_vs_extsort where both sides were measured
// in this process.
func (b *bench) speedups(rs []*result) {
	em, ext := b.walls[speedupPair[0]], b.walls[speedupPair[1]]
	for _, r := range rs {
		if r.PerLayer != nil && slices.Contains(speedupPair[:], r.Name) {
			r.PerLayer["sortalg.speedup_vs_extsort"] = ratio(ext, em)
		}
	}
}

// counterpart measures the other side of the speed-up when a process runs
// only one of the pair: set-up once and minPairs untraced iterations.
func (b *bench) counterpart(s *spec, r *result) {
	i := slices.Index(speedupPair[:], s.name)
	if i < 0 {
		return
	}
	other, _ := selectSpecs(specs(1), speedupPair[1-i])
	inst := other[0].setup(other[0], b.seed, b.env)
	var its []iterStats
	for n := 0; n <= minPairs; n++ {
		r.Attempted++
		it, err := iterate(inst, nil)
		if err != nil {
			r.fail(other[0].name+" iteration", err)
			return
		}
		if n > 0 { // the first one warms up
			its = append(its, it)
		}
	}
	b.walls[other[0].name] = summarise(wallsOf(its)).Median
	b.speedups([]*result{r})
}

// report is the -out file: what -compare reads.
type report struct {
	Seed       int64     `json:"seed"`
	GoVersion  string    `json:"go_version"`
	CPUs       int       `json:"cpus"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Workloads  []*result `json:"workloads"`
}

func writeReport(path string, rep report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}

// printTable prints every metric by name with its unit.
func printTable(rep report) {
	fmt.Printf("seed %d, %s, %d CPUs, GOMAXPROCS %d\n\n", rep.Seed, rep.GoVersion, rep.CPUs, rep.GOMAXPROCS)
	fmt.Printf("%-16s %-14s %-8s %14s %14s %14s %14s %14s %4s\n", "workload", "end-to-end", "unit", "median", "q1", "q3", "min", "max", "n")
	rows := append(slices.Clone(endToEndMetrics), metric{name: failedFrac, unit: "frac"})
	for _, r := range rep.Workloads {
		for _, m := range rows {
			s, ok := r.EndToEnd[m.name]
			if !ok {
				continue
			}
			fmt.Printf("%-16s %-14s %-8s %14.6g %14.6g %14.6g %14.6g %14.6g %4d\n", r.Name, m.name, m.unit, s.Median, s.Q1, s.Q3, s.Min, s.Max, s.N)
		}
		fmt.Printf("%-16s %-14s %-8s %14v\n", r.Name, "direct_io", "bool", r.DirectIO)
	}
	fmt.Printf("\n%-32s %-8s", "per-layer (traced run)", "unit")
	for _, r := range rep.Workloads {
		fmt.Printf(" %14s", r.Name)
	}
	fmt.Println()
	for _, m := range perLayerMetrics {
		fmt.Printf("%-32s %-8s", m.name, m.unit)
		for _, r := range rep.Workloads {
			fmt.Printf(" %14.6g", r.PerLayer[m.name])
		}
		fmt.Println()
	}
}

// printResultLine prints the one-line result of a single-workload run:
// the end-to-end metrics of the untraced run or the per-layer metrics of
// the traced one.
func printResultLine(r *result, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	if traced {
		if r.PerLayer == nil {
			return fmt.Errorf("%s: no traced iteration succeeded", r.Name)
		}
		for _, m := range perLayerMetrics {
			line.Metrics[m.name] = value{r.PerLayer[m.name], m.unit}
		}
	} else {
		if r.EndToEnd == nil {
			return fmt.Errorf("%s: no timed iteration succeeded", r.Name)
		}
		for _, m := range endToEndMetrics {
			line.Metrics[m.name] = value{r.EndToEnd[m.name].Median, m.unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
