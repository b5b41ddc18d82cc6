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
// boundary, and obs, the observability boundary. None imports the
// operating system, the network or a globally seeded random source
// directly, and none gains a module import beyond what it has today. The
// check is on direct imports: obs serves net/http/pprof, and pdm's
// FileDisk is the os.
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
	for pkg, allowed := range module {
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
				switch {
				case slices.Contains(forbidden, path) || strings.HasPrefix(path, "net/"):
					t.Errorf("%s imports %s: the I/O of a deterministic package goes through pdm", name, path)
				case inModule && !slices.Contains(allowed, dep):
					t.Errorf("%s imports %s, which internal/%s did not import before", name, path, pkg)
				}
			}
		}
	}
}
