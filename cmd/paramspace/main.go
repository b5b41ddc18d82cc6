// Command paramspace explores the paper's Section 1.4 parameter space:
// for which (N, v, B) does the sorting log factor collapse to a constant
// c (Figures 6 and 7), and which of Theorem 4's side conditions a given
// configuration satisfies.
//
//	paramspace                         # print the Figure 6/7 tables
//	paramspace -check -n 1e8 -v 64     # check one configuration
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/theory"
)

func main() {
	check := flag.Bool("check", false, "check one configuration instead of printing the tables")
	n := flag.Float64("n", 1e8, "problem size (items)")
	v := flag.Int("v", 64, "virtual processors")
	d := flag.Int("d", 2, "disks per processor")
	b := flag.Int("b", 1000, "block size (items)")
	flag.Parse()

	if !*check {
		experiments.Fig6().Render(os.Stdout)
		experiments.Fig7().Render(os.Stdout)
		return
	}
	if *n <= 0 || *v < 1 || *d < 1 || *b < 1 {
		fmt.Fprintf(os.Stderr, "paramspace: need -n > 0, -v/-d/-b >= 1; got n=%g v=%d d=%d b=%d\n", *n, *v, *d, *b)
		os.Exit(2)
	}
	// Structural machine preconditions first (D ≥ 1, B ≥ 1, p ≤ v);
	// the Theorem 4 side conditions below assume a well-formed machine.
	pcfg := core.Config{V: *v, P: 1, D: *d, B: *b}
	if err := pcfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "paramspace: %v\n", err)
		os.Exit(2)
	}
	if min := pcfg.LemmaMinN(); int(*n) < min {
		fmt.Printf("note: N=%g is below the Lemma 1–2 balanced-routing bound v²B + v²(v−1)/2 = %d\n", *n, min)
	}
	c := theory.ConstantForParams(*n, float64(*v), float64(*b))
	fmt.Printf("N=%g, v=%d, B=%d: log_{M/B}(N/B) collapses to c = %d (M = N/v = %g)\n",
		*n, *v, *b, c, *n/float64(*v))
	fmt.Printf("minimum N for c=2 at this (v,B): %s\n",
		fmt.Sprintf("%.3g", theory.MinNForConstant(2, float64(*v), float64(*b))))
	viol := theory.Constraints(int(*n), *v, *d, *b, 3)
	if len(viol) == 0 {
		fmt.Println("Theorem 4 side conditions: all satisfied")
	} else {
		fmt.Println("Theorem 4 side conditions violated:")
		for _, s := range viol {
			fmt.Println("  -", s)
		}
	}
}
