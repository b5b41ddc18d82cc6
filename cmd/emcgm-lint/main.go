// Command emcgm-lint runs the repository's invariant lint suite: the
// custom analyzers that enforce contracts the compiler cannot see.
//
//	emcgm-lint ./...                  # run every analyzer
//	emcgm-lint -run hotpathalloc ./...
//	emcgm-lint -json ./...            # diagnostics as a JSON array
//	emcgm-lint -github ./...          # GitHub Actions error annotations
//	emcgm-lint -list
//
// The binary also speaks the `go vet -vettool` protocol, so the suite
// composes with the standard vet driver and its build cache:
//
//	go vet -vettool=$(pwd)/bin/emcgm-lint ./...
//	go vet -vettool=$(pwd)/bin/emcgm-lint -run detorder ./...
//
// Exit status is 1 when any diagnostic is reported, 2 on load failure.
// See internal/analysis for the framework and each analyzer's package
// documentation for the rules it enforces.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/detorder"
	"repro/internal/analysis/hotpathalloc"
	"repro/internal/analysis/ioerrcheck"
	"repro/internal/analysis/iopurity"
)

var analyzers = []*analysis.Analyzer{
	hotpathalloc.Analyzer,
	detorder.Analyzer,
	iopurity.Analyzer,
	ioerrcheck.Analyzer,
}

func main() {
	// `go vet -vettool` probes the tool before sending real work: -V=full
	// must print a build identifier for the action cache, and -flags must
	// describe the tool's flags as JSON. Both come before flag parsing
	// because -V is not a flag this tool otherwise defines.
	for _, arg := range os.Args[1:] {
		switch arg {
		case "-V=full", "--V=full":
			printVersion()
			return
		case "-flags", "--flags":
			fmt.Println(`[{"Name":"run","Bool":false,"Usage":"comma-separated analyzer names to run"}]`)
			return
		}
	}

	runFlag := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "print diagnostics as a JSON array on stdout")
	github := flag.Bool("github", false, "print diagnostics as GitHub Actions error annotations")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: emcgm-lint [-run names] [-json|-github] [-list] packages...\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	selected := analyzers
	if *runFlag != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*runFlag, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "emcgm-lint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			selected = append(selected, a)
		}
	}

	// A single positional argument ending in .cfg is a vet compilation
	// unit: go vet invokes `emcgm-lint [flags] $WORK/…/vet.cfg` once per
	// package in dependency order.
	if args := flag.Args(); len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		diags, err := analysis.VetUnit(selected, args[0])
		if err != nil {
			fmt.Fprintf(os.Stderr, "emcgm-lint: %v\n", err)
			os.Exit(2)
		}
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s: %s\n", d.Position, d.Analyzer, d.Message)
		}
		if len(diags) > 0 {
			os.Exit(1)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	diags, err := analysis.Run(selected, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "emcgm-lint: %v\n", err)
		os.Exit(2)
	}
	switch {
	case *jsonOut:
		printJSON(diags)
	case *github:
		printGitHub(diags)
	default:
		for _, d := range diags {
			fmt.Printf("%s: %s: %s\n", d.Position, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// printVersion implements the -V=full probe: the go command requires
// `<name> version devel …buildID=<id>` and uses the line as part of the
// vet action cache key, so the ID must change whenever the tool does.
// Hashing the executable itself gives exactly that.
func printVersion() {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "emcgm-lint: %v\n", err)
		os.Exit(2)
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintf(os.Stderr, "emcgm-lint: %v\n", err)
		os.Exit(2)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintf(os.Stderr, "emcgm-lint: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("emcgm-lint version devel buildID=%x\n", h.Sum(nil))
}

func printJSON(diags []analysis.PositionedDiagnostic) {
	type jsonDiag struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:     relPath(d.Position.Filename),
			Line:     d.Position.Line,
			Column:   d.Position.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "\t")
	enc.Encode(out)
}

// printGitHub emits GitHub Actions workflow commands, which the Actions
// runner turns into inline annotations on the pull-request diff.
func printGitHub(diags []analysis.PositionedDiagnostic) {
	for _, d := range diags {
		fmt.Printf("::error file=%s,line=%d,col=%d::%s: %s\n",
			relPath(d.Position.Filename), d.Position.Line, d.Position.Column, d.Analyzer, d.Message)
	}
}

// relPath shortens an absolute diagnostic path to be relative to the
// working directory — GitHub annotations only attach to repo-relative
// paths — leaving paths outside the tree untouched.
func relPath(name string) string {
	wd, err := os.Getwd()
	if err != nil {
		return name
	}
	rel, err := filepath.Rel(wd, name)
	if err != nil || strings.HasPrefix(rel, "..") {
		return name
	}
	return rel
}
