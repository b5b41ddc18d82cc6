package repro

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestDeterministicImports: the packages that decide a run's schedule and
// its I/O count reach the outside world only through pdm, the I/O
// boundary (its FileDisk is the os). Neither they nor any module package
// they import, directly or through another, imports the operating system,
// the network or a globally seeded random source; pdm is the one package
// of the closure that is not checked or descended into. The six
// schedule-deciding packages also gain no module import beyond what they
// have today.
func TestDeterministicImports(t *testing.T) {
	forbidden := []string{"os", "os/exec", "os/signal", "syscall", "net", "io/ioutil", "math/rand", "math/rand/v2"}
	module := map[string][]string{
		"core":      {"balance", "cgm", "costmodel", "layout", "obs", "pdm", "wordcodec"},
		"balance":   {"cgm", "obs", "pdm", "wordcodec"},
		"layout":    {"pdm"},
		"permute":   {"cgm", "core", "pdm", "sortalg", "wordcodec"},
		"sortalg":   {"cgm", "core", "layout", "pdm", "wordcodec"},
		"transpose": {"cgm", "core", "pdm", "permute", "sortalg"},
	}
	var queue []string
	for pkg := range module {
		queue = append(queue, pkg)
	}
	checked := map[string]bool{"pdm": true}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		if checked[pkg] {
			continue
		}
		checked[pkg] = true
		files, _ := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if len(files) == 0 {
			t.Errorf("internal/%s has no Go files", pkg)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				dep, inModule := strings.CutPrefix(path, "repro/internal/")
				allowed, schedules := module[pkg]
				switch {
				case slices.Contains(forbidden, path) || strings.HasPrefix(path, "net/"):
					t.Errorf("%s imports %s: the I/O of a deterministic package goes through pdm", name, path)
				case inModule && schedules && !slices.Contains(allowed, dep):
					t.Errorf("%s imports %s, which internal/%s did not import before", name, path, pkg)
				case inModule:
					queue = append(queue, dep)
				}
			}
		}
	}
}
