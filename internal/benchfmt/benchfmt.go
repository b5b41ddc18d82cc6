// Package benchfmt defines the versioned benchmark result schema the
// experiment runners emit and the regression tooling consumes.
//
// A File is one recording session: machine metadata (results are only
// comparable like-for-like), the experiment parameters, and a list of
// named benchmarks. Each benchmark carries its iteration count and a
// set of metrics with dispersion (min/max over iterations) and a
// direction — "lower" and "higher" mean noisy wall-clock-style
// quantities compared under a noise-aware tolerance, while "exact"
// marks model-determined counts (PDM parallel I/Os, rounds) where any
// difference at all is a regression. emcgm-benchdiff compares two
// Files; CI compares a fresh smoke run against the committed baseline.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// Version is the schema version this package reads and writes.
const Version = 1

// Metric directions.
const (
	Lower  = "lower"  // smaller is better; compared with tolerance
	Higher = "higher" // larger is better; compared with tolerance
	Exact  = "exact"  // model-determined; any difference is a regression
)

// Metric is one measured quantity of a benchmark.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`         // the reported value (best iteration for wall times)
	Min    float64 `json:"min,omitempty"` // dispersion over iterations
	Max    float64 `json:"max,omitempty"`
	Better string  `json:"better"` // Lower, Higher or Exact
}

// Benchmark is one measured configuration.
type Benchmark struct {
	Name       string   `json:"name"`
	Iterations int      `json:"iterations"`
	Metrics    []Metric `json:"metrics"`
}

// MachineInfo records where a File was produced; cross-machine wall
// times are not comparable, and benchdiff prints both sides' info.
type MachineInfo struct {
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"numCPU"`
	GoVersion string `json:"goVersion"`
	Hostname  string `json:"hostname,omitempty"`
}

// Params are the experiment-scale parameters the benchmarks ran at.
type Params struct {
	N int `json:"n"`
	V int `json:"v"`
	P int `json:"p"`
	D int `json:"d"`
	B int `json:"b"`
	// Depth is the configured pipeline window depth (0 = auto, 1 = the
	// synchronous schedule). Additive and omitempty, so recordings from
	// older schemas compare cleanly; their "pipeline" flag — a switch
	// the engine no longer has — is ignored on read.
	Depth int `json:"depth,omitempty"`
}

// File is one recording session.
type File struct {
	Version    int         `json:"version"`
	Tool       string      `json:"tool"`
	CreatedAt  string      `json:"createdAt"` // RFC 3339
	Machine    MachineInfo `json:"machine"`
	Params     Params      `json:"params"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// New returns a File stamped with this machine and the current time.
func New(tool string, p Params) *File {
	host, _ := os.Hostname()
	return &File{
		Version:   Version,
		Tool:      tool,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Machine: MachineInfo{
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			NumCPU:    runtime.NumCPU(),
			GoVersion: runtime.Version(),
			Hostname:  host,
		},
		Params: p,
	}
}

// Add appends one benchmark. A nil *File ignores the call, so emitters
// can be wired unconditionally and enabled by handing them a File.
func (f *File) Add(name string, iterations int, metrics ...Metric) {
	if f == nil {
		return
	}
	f.Benchmarks = append(f.Benchmarks, Benchmark{Name: name, Iterations: iterations, Metrics: metrics})
}

// Find returns the named benchmark, or nil.
func (f *File) Find(name string) *Benchmark {
	if f == nil {
		return nil
	}
	for i := range f.Benchmarks {
		if f.Benchmarks[i].Name == name {
			return &f.Benchmarks[i]
		}
	}
	return nil
}

// Metric returns the named metric of benchmark b, or nil.
func (b *Benchmark) Metric(name string) *Metric {
	if b == nil {
		return nil
	}
	for i := range b.Metrics {
		if b.Metrics[i].Name == name {
			return &b.Metrics[i]
		}
	}
	return nil
}

// Write emits the file as indented JSON.
func (f *File) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// WriteFile writes the file to path.
func (f *File) WriteFile(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("benchfmt: %w", err)
	}
	if err := f.Write(out); err != nil {
		_ = out.Close() // the write error is the one worth reporting
		return fmt.Errorf("benchfmt: write %s: %w", path, err)
	}
	return out.Close()
}

// Read decodes a File, rejecting unknown schema versions.
func Read(r io.Reader) (*File, error) {
	var f File
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("benchfmt: decode: %w", err)
	}
	if f.Version != Version {
		return nil, fmt.Errorf("benchfmt: schema version %d, this build reads %d", f.Version, Version)
	}
	return &f, nil
}

// ReadFile reads a File from path.
func ReadFile(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("benchfmt: %w", err)
	}
	defer in.Close()
	f, err := Read(in)
	if err != nil {
		return nil, fmt.Errorf("benchfmt: %s: %w", path, err)
	}
	return f, nil
}

// WallMetric builds the standard wall-time metric from a best-of-reps
// measurement: Value and Min are the best iteration, Max the worst.
func WallMetric(best, worst time.Duration) Metric {
	return Metric{Name: "wall", Unit: "ns", Better: Lower,
		Value: float64(best), Min: float64(best), Max: float64(worst)}
}

// ExactMetric builds a model-determined count metric.
func ExactMetric(name, unit string, v int64) Metric {
	return Metric{Name: name, Unit: unit, Better: Exact, Value: float64(v)}
}
