// Command emcgm-graph runs the Group C graph pipeline on a generated
// graph under the EM-CGM simulation and prints the accounting:
//
//	emcgm-graph -n 5000 -m 12000            # components + blocks + bridges
//	emcgm-graph -grid 80x60                 # grid road network
//	emcgm-graph -n 2000 -m 4000 -v 16 -p 4  # machine parameters
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/rec"
	"repro/internal/workload"
)

func main() {
	n := flag.Int("n", 2000, "vertices")
	m := flag.Int("m", 5000, "edges (random multigraph)")
	grid := flag.String("grid", "", "use a WxH grid graph instead (e.g. 80x60)")
	v := flag.Int("v", 8, "virtual processors")
	p := flag.Int("p", 4, "real processors")
	d := flag.Int("d", 2, "disks per processor")
	b := flag.Int("b", 256, "block size in words")
	seed := flag.Int64("seed", 1, "workload seed")
	disks := flag.String("disks", "", "directory for file-backed disks (empty = in-memory)")
	directio := flag.Bool("directio", false, "open file disks with O_DIRECT, bypassing the page cache (needs -disks; falls back to buffered I/O where unsupported)")
	traceOut := flag.String("trace", "", "write a Chrome trace of all pipeline phases to this file (load in Perfetto)")
	depth := flag.Int("depth", 0, "pipeline window depth k for every phase (0 = auto: 2 on in-memory and buffered file disks, the default disk model's depth under -directio; 1 = the synchronous schedule; PDM counts are identical at every depth)")
	flag.Parse()

	for _, f := range []struct {
		name string
		val  int
	}{{"-v", *v}, {"-p", *p}, {"-d", *d}, {"-b", *b}} {
		if f.val < 1 {
			fmt.Fprintf(os.Stderr, "emcgm-graph: %s must be at least 1, got %d\n", f.name, f.val)
			os.Exit(2)
		}
	}
	if *grid == "" && (*n < 1 || *m < 0) {
		fmt.Fprintf(os.Stderr, "emcgm-graph: need -n >= 1 and -m >= 0, got n=%d m=%d\n", *n, *m)
		os.Exit(2)
	}
	// Every pipeline stage below runs on this machine shape; fail fast
	// with the violated paper precondition (e.g. p must divide v).
	if *depth < 0 {
		fmt.Fprintf(os.Stderr, "emcgm-graph: -depth must be >= 0 (0 = auto), got %d\n", *depth)
		os.Exit(2)
	}
	mcfg := core.Config{V: *v, P: *p, D: *d, B: *b, PipelineDepth: *depth, DiskDir: *disks, DirectIO: *directio}
	if err := mcfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "emcgm-graph: %v\n", err)
		os.Exit(2)
	}
	if *disks != "" {
		if err := os.MkdirAll(*disks, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "emcgm-graph: %v\n", err)
			os.Exit(1)
		}
		if *directio && !pdm.DirectIOSupported(*disks, *b) {
			fmt.Fprintf(os.Stderr, "emcgm-graph: direct I/O not available on %s with B=%d (needs 8·B %% 512 == 0 and filesystem support); using buffered I/O\n", *disks, *b)
		}
	}

	var recorder *obs.Recorder
	if *traceOut != "" {
		recorder = obs.NewRecorder()
	}
	mcfg.Recorder = recorder

	var edges []workload.Edge
	nv := *n
	if *grid != "" {
		var w, h int
		if _, err := fmt.Sscanf(strings.ToLower(*grid), "%dx%d", &w, &h); err != nil || w < 1 || h < 1 {
			fmt.Fprintf(os.Stderr, "emcgm-graph: bad -grid %q: want WxH with both at least 1\n", *grid)
			os.Exit(2)
		}
		edges = workload.GridGraph(w, h)
		nv = w * h
	} else {
		edges = workload.Graph(*seed, nv, *m)
	}

	e1 := &rec.Exec{Config: mcfg, EM: true}
	labels, forest, err := graph.ConnectedComponents(e1, nv, edges)
	if err != nil {
		fmt.Fprintf(os.Stderr, "emcgm-graph: components: %v\n", err)
		os.Exit(1)
	}
	comps := map[int64]bool{}
	for _, l := range labels {
		comps[l] = true
	}
	fmt.Printf("graph: %d vertices, %d edges\n", nv, len(edges))
	fmt.Printf("connected components: %d (forest %d edges)\n", len(comps), len(forest))
	fmt.Printf("  λ = %d rounds, %d parallel I/Os, %d items over the network\n",
		e1.Rounds, e1.IO.ParallelOps, e1.CommItems)

	e2 := &rec.Exec{Config: mcfg, EM: true}
	blocks, err := graph.Biconn(e2, nv, edges)
	if err != nil {
		fmt.Fprintf(os.Stderr, "emcgm-graph: biconnectivity: %v\n", err)
		os.Exit(1)
	}
	blockSet := map[int64]int{}
	for _, bl := range blocks {
		blockSet[bl]++
	}
	bridges := 0
	for _, c := range blockSet {
		if c == 1 {
			bridges++
		}
	}
	fmt.Printf("biconnected components: %d (%d bridges)\n", len(blockSet), bridges)
	fmt.Printf("  λ = %d rounds, %d parallel I/Os\n", e2.Rounds, e2.IO.ParallelOps)

	e3 := &rec.Exec{Config: mcfg, EM: true}
	arts, err := graph.ArticulationPoints(e3, nv, edges)
	if err != nil {
		fmt.Fprintf(os.Stderr, "emcgm-graph: articulation points: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("articulation points: %d\n", len(arts))
	fmt.Printf("  λ = %d rounds, %d parallel I/Os\n", e3.Rounds, e3.IO.ParallelOps)
	if sys := e1.Syscalls + e2.Syscalls + e3.Syscalls; sys > 0 {
		ops := e1.IO.ParallelOps + e2.IO.ParallelOps + e3.IO.ParallelOps
		fmt.Printf("I/O syscalls: %d over %d parallel I/Os (%.2f per op)\n",
			sys, ops, float64(sys)/float64(ops))
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "emcgm-graph: %v\n", err)
			os.Exit(1)
		}
		if err := recorder.WriteChromeTrace(f); err != nil {
			fmt.Fprintf(os.Stderr, "emcgm-graph: write trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "emcgm-graph: %v\n", err)
			os.Exit(1)
		}
		if dr := recorder.DroppedEvents(); dr > 0 {
			fmt.Fprintf(os.Stderr, "emcgm-graph: trace buffer full, dropped %d events\n", dr)
		}
		fmt.Printf("trace: %s (open in https://ui.perfetto.dev)\n", *traceOut)
	}
}
