package main

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// nondeterministic lists the imports a simulation may not have: the wall
// clock and unseeded or global randomness. Simulated time is
// sim.Engine.Now, and randomness is a generator seeded from the spec.
var nondeterministic = map[string]bool{
	"time":         true,
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

// clockOrRandomImports returns "file: path" for every import in
// nondeterministic made by a non-test Go file under root (testdata
// directories aside), reading import lists only.
func clockOrRandomImports(t *testing.T, root string) []string {
	t.Helper()
	var bad []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); nondeterministic[p] {
				bad = append(bad, path+": "+p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return bad
}

// TestInternalImportsNoClockOrRandomness is the determinism contract's
// import gate (doc.go "Enforcement"): no package under internal/ imports
// the wall clock or a random source, so nothing a simulation computes can
// depend on either. The benchmark harness and the CLI, which time runs,
// live outside internal/.
func TestInternalImportsNoClockOrRandomness(t *testing.T) {
	if bad := clockOrRandomImports(t, "internal"); len(bad) > 0 {
		t.Errorf("non-deterministic imports under internal/:\n%s", strings.Join(bad, "\n"))
	}
}

// TestImportGateCatchesTime: the gate reports a package that imports time,
// and only its non-test file.
func TestImportGateCatchesTime(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "p")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{
		"p.go":      "package p\n\nimport \"time\"\n\nvar Start = time.Now()\n",
		"p_test.go": "package p\n\nimport \"math/rand\"\n\nvar _ = rand.Int\n",
		"q.go":      "package p\n\nimport \"fmt\"\n\nvar _ = fmt.Sprint\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bad := clockOrRandomImports(t, filepath.Dir(dir))
	if want := filepath.Join(dir, "p.go") + ": time"; len(bad) != 1 || bad[0] != want {
		t.Fatalf("gate reported %q, want [%q]", bad, want)
	}
}
