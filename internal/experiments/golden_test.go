package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestHarnessGolden holds every deterministic table at DefaultScale —
// each figure but the wall-clock depth sweep — to the committed harness
// output byte for byte: testdata/harness.golden is EXPERIMENTS.md's "Full
// harness output" block, which is
//
//	for f in 3 4 5 6 7 8 balance cache sweep; do emcgm-bench -fig $f; done
//
// without its leading blank line. A Figure 5 row whose count moves fails
// here by name.
func TestHarnessGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/harness.golden")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, f := range Figures {
		if f.Key == "depth" {
			continue
		}
		tb, err := f.Make(DefaultScale())
		if err != nil {
			t.Fatalf("-fig %s: %v", f.Key, err)
		}
		tb.Render(&buf)
	}
	got := strings.Split(strings.TrimPrefix(buf.String(), "\n"), "\n")
	lines := strings.Split(string(want), "\n")
	for i := range max(len(got), len(lines)) {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(lines) {
			w = lines[i]
		}
		if g != w {
			t.Errorf("line %d:\ngot  %q\nwant %q", i+1, g, w)
		}
	}
}
