// Command emcgm-bench regenerates the paper's evaluation artifacts:
//
//	emcgm-bench                 # all figures at the default scale
//	emcgm-bench -fig 5          # just Figure 5 (the problem table)
//	emcgm-bench -n 262144 -v 16 # bigger instances
//	emcgm-bench -csv            # machine-readable output (CSV)
//	emcgm-bench -json           # machine-readable output (JSON)
//	emcgm-bench -trace out.json # Chrome trace of every EM run (Perfetto)
//	emcgm-bench -ledger led.json    # predicted-vs-measured cost-model ledger
//	emcgm-bench -fig depth -disks /data -directio   # wall clock on real disks
//
// Figures: 3 (VM vs EM-CGM sort), 4 (1 vs 2 disks), 5 (measured problem
// table, Groups A/B/C), 6/7 (parameter-space surface), 8 (block-size
// throughput), "balance" (Theorem 1 demonstration), "cache" (cache
// control), "sweep" (p and D scalability) and "depth" (wall clock,
// syscalls and stall over window depths k = 1, 2, 4, 8, auto on mem,
// mem+delay, file and file+direct disks).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/trace"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 3, 4, 5, 6, 7, 8, balance, cache, sweep, depth, all")
	n := flag.Int("n", 0, "base problem size in items (0 = default 65536)")
	v := flag.Int("v", 0, "virtual processors (0 = default 8)")
	p := flag.Int("p", 0, "real processors (0 = default 4)")
	b := flag.Int("b", 0, "block size in words (0 = default 512)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := flag.Bool("json", false, "emit one JSON array of tables instead of aligned tables")
	traceOut := flag.String("trace", "", "write a Chrome trace of every EM-CGM run to this file (load in Perfetto)")
	ledgerOut := flag.String("ledger", "", "collect a predicted-vs-measured cost-model ledger over every EM-CGM run of the chosen figures, print its summary, calibrate its time model from the session's own disk latencies, and write the JSON export to this file; exits 1 if any prediction misses")
	depth := flag.Int("depth", 0, "pipeline window depth k for every run (0 = auto: 2 on in-memory and buffered file disks, the default disk model's depth on O_DIRECT and delay disks, clamped by v; 1 = the synchronous schedule; PDM counts are identical at every depth; the depth figure runs its own ladder)")
	disks := flag.String("disks", "", "directory for the depth figure's file-disk files (empty = temporary directory)")
	directio := flag.Bool("directio", true, "include file+direct (O_DIRECT) rows in the depth figure where the filesystem supports them")
	flag.Parse()

	for _, f := range []struct {
		name string
		val  int
	}{{"-n", *n}, {"-v", *v}, {"-p", *p}, {"-b", *b}} {
		if f.val < 0 {
			fmt.Fprintf(os.Stderr, "emcgm-bench: %s must be positive (or 0 for the default), got %d\n", f.name, f.val)
			os.Exit(2)
		}
	}
	if *csv && *jsonOut {
		fmt.Fprintln(os.Stderr, "emcgm-bench: -csv and -json are mutually exclusive")
		os.Exit(2)
	}

	s := experiments.DefaultScale()
	if *n > 0 {
		s.N = *n
	}
	if *v > 0 {
		s.V = *v
	}
	if *p > 0 {
		s.P = *p
	}
	if *b > 0 {
		s.B = *b
	}
	if *depth < 0 {
		fmt.Fprintf(os.Stderr, "emcgm-bench: -depth must be >= 0 (0 = auto), got %d\n", *depth)
		os.Exit(2)
	}
	s.Depth = *depth
	s.DiskDir = *disks
	s.DirectIO = *directio
	// The experiments derive every machine from this scale; validate it
	// once up front so a bad -v/-p/-b combination is a descriptive
	// precondition error instead of a failure deep inside a figure run.
	scfg := core.Config{V: s.V, P: s.P, D: 1, B: s.B}
	if err := scfg.ValidateFor(s.N); err != nil {
		fmt.Fprintf(os.Stderr, "emcgm-bench: %v\n", err)
		os.Exit(2)
	}

	if *traceOut != "" || *ledgerOut != "" {
		s.Rec = obs.NewRecorder()
	}
	if *ledgerOut != "" {
		s.Ledger = costmodel.NewLedger(pdm.DefaultTimeModel())
	}

	var tables []*trace.Table
	emit := func(t *trace.Table, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "emcgm-bench: %v\n", err)
			os.Exit(1)
		}
		switch {
		case *jsonOut:
			tables = append(tables, t)
		case *csv:
			t.CSV(os.Stdout)
		default:
			t.Render(os.Stdout)
		}
	}

	found := false
	for _, f := range experiments.Figures {
		if *fig == "all" || *fig == f.Key {
			found = true
			emit(f.Make(s))
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "emcgm-bench: unknown figure %q\n", *fig)
		os.Exit(2)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			fmt.Fprintf(os.Stderr, "emcgm-bench: %v\n", err)
			os.Exit(1)
		}
	}
	if *ledgerOut != "" {
		// Calibrate the ledger's time model from the per-disk batch
		// latencies this very session observed, so the exported modelled
		// wall times reflect the machine that produced them.
		if _, err := costmodel.Calibrate(s.Ledger, s.Rec, s.B); err != nil {
			fmt.Fprintf(os.Stderr, "emcgm-bench: calibrate: %v (keeping the default time model)\n", err)
		}
		if !*csv && !*jsonOut {
			s.Ledger.SummaryTable().Render(os.Stdout)
		}
		f, err := os.Create(*ledgerOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "emcgm-bench: %v\n", err)
			os.Exit(1)
		}
		if err := s.Ledger.WriteJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "emcgm-bench: write ledger: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "emcgm-bench: %v\n", err)
			os.Exit(1)
		}
		if err := s.Ledger.Reconcile(); err != nil {
			fmt.Fprintf(os.Stderr, "emcgm-bench: cost-model drift: %v\n", err)
			os.Exit(1)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "emcgm-bench: %v\n", err)
			os.Exit(1)
		}
		if err := s.Rec.WriteChromeTrace(f); err != nil {
			fmt.Fprintf(os.Stderr, "emcgm-bench: write trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "emcgm-bench: %v\n", err)
			os.Exit(1)
		}
		if d := s.Rec.DroppedEvents(); d > 0 {
			fmt.Fprintf(os.Stderr, "emcgm-bench: trace buffer full, dropped %d events\n", d)
		}
	}
}
