// Selfcheck: run the full flexvet suite in-process over every package in
// the module. This is the same gate CI applies via cmd/flexvet, kept in
// `go test ./...` so the contracts fail fast during development too.
package analysis_test

import (
	"os"
	"testing"

	"flextoe/internal/analysis/detrange"
	"flextoe/internal/analysis/flexanalysis"
	"flextoe/internal/analysis/viewretain"
)

var enforcing = []*flexanalysis.Analyzer{
	viewretain.Analyzer,
	detrange.Analyzer,
}

// loadTree loads every package in the module (the CLI's ./... pattern).
func loadTree(t *testing.T) []*flexanalysis.Package {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, modPath, err := flexanalysis.ModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := flexanalysis.NewLoader().LoadAll(root, modPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; expected the whole module", len(pkgs))
	}
	return pkgs
}

// TestTreeClean asserts the real tree has zero unsuppressed diagnostics
// from the two enforcing passes.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module; skipped in -short")
	}
	for _, pkg := range loadTree(t) {
		results, err := flexanalysis.RunPackage(pkg, enforcing)
		if err != nil {
			t.Fatalf("%s: %v", pkg.Path, err)
		}
		for _, res := range results {
			for _, d := range res.Diags {
				t.Errorf("%s: %s: %s", d.Posn(pkg.Fset), d.Analyzer, d.Message)
			}
		}
	}
}
