// Command emcgm-sort sorts a generated dataset through the EM-CGM
// simulation end to end and prints the machine's accounting — the
// quickstart CLI for the library:
//
//	emcgm-sort -n 1000000 -v 16 -p 4 -d 2 -b 512
//	emcgm-sort -n 200000 -v 8 -balanced     # with BalancedRouting
//	emcgm-sort -n 100000 -disks /tmp/emcgm  # real file-backed disks
//	emcgm-sort -n 100000 -trace out.json    # Chrome trace (Perfetto)
//	emcgm-sort -n 100000 -steps             # per-superstep I/O table
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/sortalg"
	"repro/internal/theory"
	"repro/internal/wordcodec"
	"repro/internal/workload"
)

func main() {
	n := flag.Int("n", 1<<20, "items to sort")
	v := flag.Int("v", 16, "virtual processors")
	p := flag.Int("p", 4, "real processors")
	d := flag.Int("d", 2, "disks per real processor")
	b := flag.Int("b", 512, "block size in words")
	balanced := flag.Bool("balanced", false, "route messages through BalancedRouting")
	seed := flag.Int64("seed", 1, "workload seed")
	disks := flag.String("disks", "", "directory for file-backed disks (empty = in-memory)")
	directio := flag.Bool("directio", false, "open file disks with O_DIRECT, bypassing the page cache (needs -disks; falls back to buffered I/O where unsupported)")
	traceOut := flag.String("trace", "", "write a Chrome trace to this file (load in Perfetto)")
	steps := flag.Bool("steps", false, "print the per-superstep I/O table")
	msgs := flag.Bool("msgs", false, "print BalancedRouting message sizes vs the Theorem 1 bound (needs -balanced)")
	depth := flag.Int("depth", 0, "pipeline window depth k (0 = auto: 2 on in-memory and buffered file disks, the default disk model's depth under -directio; 1 = the synchronous schedule; PDM counts are identical at every depth)")
	flag.Parse()

	for _, f := range []struct {
		name string
		val  int
	}{{"n", *n}, {"v", *v}, {"p", *p}, {"d", *d}, {"b", *b}} {
		if f.val < 1 {
			fmt.Fprintf(os.Stderr, "emcgm-sort: -%s must be >= 1 (got %d)\n", f.name, f.val)
			os.Exit(2)
		}
	}
	if *msgs && !*balanced {
		fmt.Fprintln(os.Stderr, "emcgm-sort: -msgs needs -balanced (no message rounds to report otherwise)")
		os.Exit(2)
	}

	if *depth < 0 {
		fmt.Fprintf(os.Stderr, "emcgm-sort: -depth must be >= 0 (0 = auto), got %d\n", *depth)
		os.Exit(2)
	}
	cfg := core.Config{V: *v, P: *p, D: *d, B: *b, Balanced: *balanced, PipelineDepth: *depth, DiskDir: *disks, DirectIO: *directio}
	if err := cfg.ValidateFor(*n); err != nil {
		fmt.Fprintf(os.Stderr, "emcgm-sort: %v\n", err)
		os.Exit(2)
	}
	if *traceOut != "" || *steps || *msgs {
		cfg.Recorder = obs.NewRecorder()
	}
	if *disks != "" {
		if err := os.MkdirAll(*disks, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "emcgm-sort: %v\n", err)
			os.Exit(1)
		}
		if *directio && !pdm.DirectIOSupported(*disks, *b) {
			fmt.Fprintf(os.Stderr, "emcgm-sort: direct I/O not available on %s with B=%d (needs 8·B %% 512 == 0 and filesystem support); using buffered I/O\n", *disks, *b)
		}
	}

	if viol := theory.Constraints(*n, *v, *d, *b, 3); len(viol) > 0 {
		fmt.Println("outside the paper's parameter range (results still exact):")
		for _, vi := range viol {
			fmt.Println("  -", vi)
		}
	}

	keys := workload.Int64s(*seed, *n)
	start := time.Now()
	sorted, res, err := sortalg.EMSort(keys, wordcodec.I64{}, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "emcgm-sort: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	for i := 1; i < len(sorted); i++ {
		if sorted[i] < sorted[i-1] {
			fmt.Fprintln(os.Stderr, "emcgm-sort: OUTPUT NOT SORTED — bug")
			os.Exit(1)
		}
	}

	tm := pdm.DefaultTimeModel()
	fmt.Printf("sorted %d items on v=%d virtual / p=%d real processors, D=%d disks, B=%d words\n",
		*n, *v, *p, *d, *b)
	fmt.Printf("  rounds (λ):            %d\n", res.Rounds)
	fmt.Printf("  parallel I/Os:         %d total (%d context, %d message)\n",
		res.IO.ParallelOps, res.CtxOps, res.MsgOps)
	perProc, unit := res.IO.ParallelOps/int64(*p), *n/(*p**d**b)
	fmt.Printf("  per processor:         %d  —  theory O(N/pDB) unit = %d", perProc, unit)
	if unit > 0 {
		// The constant the O hides: what the live-prefix transfer is about.
		fmt.Printf(", constant = %.2f units", float64(perProc)/float64(unit))
	}
	fmt.Println()
	fmt.Printf("  disk fullness:         %.2f\n", res.IO.Fullness(*d))
	fmt.Printf("  items over network:    %d\n", res.CommItems)
	if res.Syscalls > 0 {
		fmt.Printf("  I/O syscalls:          %d (%.2f per parallel I/O)\n",
			res.Syscalls, float64(res.Syscalls)/float64(res.IO.ParallelOps))
	}
	fmt.Printf("  max h-relation:        %d (N/v = %d)\n", res.MaxH, *n / *v)
	fmt.Printf("  modelled I/O time:     %v (1990s disk: %v/op at B=%d)\n",
		tm.IOTime(res.IO.ParallelOps/int64(*p), *b), tm.OpTime(*b), *b)
	fmt.Printf("  wall time (simulated): %v\n", elapsed)

	if rec := cfg.Recorder; *steps && rec != nil {
		rec.SuperstepTable(tm.OpTime(*b)).Render(os.Stdout)
	}
	if rec := cfg.Recorder; *msgs && rec != nil {
		rec.MsgTable().Render(os.Stdout)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "emcgm-sort: %v\n", err)
			os.Exit(1)
		}
		if err := cfg.Recorder.WriteChromeTrace(f); err != nil {
			fmt.Fprintf(os.Stderr, "emcgm-sort: write trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "emcgm-sort: %v\n", err)
			os.Exit(1)
		}
		if dr := cfg.Recorder.DroppedEvents(); dr > 0 {
			fmt.Fprintf(os.Stderr, "emcgm-sort: trace buffer full, dropped %d events\n", dr)
		}
		fmt.Printf("  trace:                 %s (open in https://ui.perfetto.dev)\n", *traceOut)
	}
}
