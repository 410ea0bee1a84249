// Command flexvet is the repo's contract checker: a multichecker that
// runs the two flextoe analysis passes over Go packages and exits
// non-zero on any unsuppressed diagnostic. It is the static half of the
// contracts doc.go states and CI's runtime gates probe:
//
//	viewretain  zero-copy view aliasing (PR 5)
//	detrange    one-seed determinism (map order, wall clock, global rand)
//
// Pooling ownership has no pass (doc.go "Pooling ownership"): a closure
// built per event fails the runtime allocation gates, and a pooled object
// leaked or released twice leaves its pool's loan count off zero once a
// run goes quiet (sim.Engine.Unreturned).
//
// Usage:
//
//	flexvet [-v] [packages]
//
// Package patterns are directories relative to the module root; the
// pattern ./... (the default) analyzes every package in the module.
// Suppression: a //flexvet:<pass> <why> comment on the diagnosed line or
// the line above silences that pass there; detrange also accepts
// //flexvet:ordered for order-insensitive map scans.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"flextoe/internal/analysis/detrange"
	"flextoe/internal/analysis/flexanalysis"
	"flextoe/internal/analysis/viewretain"
)

// Analyzers is the flexvet suite in reporting order.
var Analyzers = []*flexanalysis.Analyzer{
	viewretain.Analyzer,
	detrange.Analyzer,
}

func main() {
	verbose := flag.Bool("v", false, "list suppressed diagnostics too")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: flexvet [-v] [packages]\n\nPasses:\n")
		for _, a := range Analyzers {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	if err := run(flag.Args(), *verbose, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flexvet:", err)
		os.Exit(2)
	}
}

func run(patterns []string, verbose bool, out *os.File) error {
	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	root, modPath, err := flexanalysis.ModuleRoot(cwd)
	if err != nil {
		return err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader := flexanalysis.NewLoader()
	var pkgs []*flexanalysis.Package
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
			if pat == "." {
				pat = ""
			}
		}
		dir := filepath.Join(root, filepath.FromSlash(pat))
		if recursive {
			loaded, err := loader.LoadAll(dir, joinImport(modPath, pat))
			if err != nil {
				return err
			}
			pkgs = append(pkgs, loaded...)
			continue
		}
		pkg, err := loader.Load(dir, joinImport(modPath, pat))
		if err != nil {
			return err
		}
		pkgs = append(pkgs, pkg)
	}

	bad := 0
	suppressed := 0
	for _, pkg := range pkgs {
		results, err := flexanalysis.RunPackage(pkg, Analyzers)
		if err != nil {
			return err
		}
		for _, res := range results {
			suppressed += len(res.Suppressed)
			for _, d := range res.Diags {
				fmt.Fprintf(out, "%s: %s: %s\n", relPos(root, d.Posn(pkg.Fset)), d.Analyzer, d.Message)
				bad++
			}
			if verbose {
				for _, d := range res.Suppressed {
					fmt.Fprintf(out, "%s: %s: suppressed: %s\n", relPos(root, d.Posn(pkg.Fset)), d.Analyzer, d.Message)
				}
			}
		}
	}

	if bad > 0 {
		fmt.Fprintf(out, "flexvet: %d diagnostic(s) in %d package(s)\n", bad, len(pkgs))
		os.Exit(1)
	}
	if verbose {
		fmt.Fprintf(out, "flexvet: %d package(s) clean (%d suppressed)\n", len(pkgs), suppressed)
	}
	return nil
}

func joinImport(modPath, rel string) string {
	rel = strings.Trim(filepath.ToSlash(rel), "/")
	if rel == "" || rel == "." {
		return modPath
	}
	return modPath + "/" + rel
}

// relPos shortens an absolute diagnostic position to be root-relative.
func relPos(root, pos string) string {
	if rel, err := filepath.Rel(root, pos); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return pos
}
