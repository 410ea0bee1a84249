// Package flexanalysis is a minimal static-analysis framework modelled on
// golang.org/x/tools/go/analysis, built entirely on the standard library's
// go/ast + go/types (the container bakes no x/tools module, and the repo
// adds no dependencies). It provides what the flexvet analyzers need and
// nothing more:
//
//   - Analyzer / Pass / Diagnostic mirroring the x/tools shapes, so the
//     two contract passes (viewretain, detrange) read like ordinary
//     go/analysis passes and could move to the real framework wholesale
//     if it ever lands in the build image. Pooling ownership is not a
//     pass: the runtime allocation gates and the pools' loan counts at
//     quiescence enforce it.
//   - A package loader (Loader) that parses one directory with build-tag
//     awareness and type-checks it against the stdlib source importer, so
//     intra-module and stdlib imports resolve without a module download.
//   - A runner with the repo's suppression-comment convention: a
//     //flexvet:<pass> comment on the offending line (or the line above)
//     suppresses that pass's diagnostic there; detrange additionally
//     honours the spelling //flexvet:ordered for order-insensitive map
//     iteration (see doc.go "Statically enforced contracts").
//   - An analysistest-style harness (RunWant) driven by `// want "regexp"`
//     comments in testdata packages.
package flexanalysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the pass; it is also the suppression-comment key
	// (//flexvet:<Name>).
	Name string
	// Doc is the one-paragraph contract statement shown by `flexvet help`.
	Doc string
	// Run executes the pass over one package and reports diagnostics via
	// pass.Report. The signature mirrors go/analysis; every pass returns a
	// nil value and the runner ignores it.
	Run func(*Pass) (any, error)
}

// Pass carries one analyzed package to an Analyzer.Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records one diagnostic. Suppression filtering happens in the
	// runner, not here.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled by the runner
}

// Posn formats a diagnostic position against a file set.
func (d Diagnostic) Posn(fset *token.FileSet) string {
	return fset.Position(d.Pos).String()
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s", d.Analyzer, d.Message)
}

// Reportf is a convenience for analyzers: format and report at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.TypesInfo.TypeOf(e) }

// ObjectOf returns the object denoted by ident, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	return p.TypesInfo.ObjectOf(id)
}

// CriticalPrefixes are the simulation-critical package roots: everything
// that runs inside the discrete-event engine, where the determinism
// contract applies. detrange enforces only within these subtrees (a
// package is critical when its import path equals a prefix or sits
// beneath one).
var CriticalPrefixes = []string{
	"flextoe/internal/sim",
	"flextoe/internal/core",
	"flextoe/internal/ctrl",
	"flextoe/internal/baseline",
	"flextoe/internal/libtoe",
	"flextoe/internal/netsim",
	"flextoe/internal/fabric",
	"flextoe/internal/host",
	"flextoe/internal/sched",
	"flextoe/internal/nfp",
	// Not engine-resident, but bound by the same determinism contract:
	// a scenario spec must produce byte-identical result payloads on
	// every rerun, so the builder, readout, and job service may not read
	// the wall clock, draw global randomness, or iterate maps.
	"flextoe/internal/scenario",
}

// Critical reports whether pkgPath is simulation-critical.
func Critical(pkgPath string) bool { return underAny(pkgPath, CriticalPrefixes) }

// unownedPrefixes are the packages outside the critical set that hold a
// *sim.Engine and may schedule on it as of right — applications, the
// experiment runners, the testbed — but must say so where they do.
var unownedPrefixes = []string{
	"flextoe/internal/apps",
	"flextoe/internal/experiments",
	"flextoe/internal/testbed",
}

// EngineResident reports whether pkgPath builds or runs inside a
// simulation: the critical packages plus those that schedule unowned
// events by design. detrange's unowned-scheduling check covers this set.
func EngineResident(pkgPath string) bool {
	return Critical(pkgPath) || underAny(pkgPath, unownedPrefixes)
}

func underAny(pkgPath string, prefixes []string) bool {
	for _, p := range prefixes {
		if pkgPath == p || (len(pkgPath) > len(p) && pkgPath[:len(p)] == p && pkgPath[len(p)] == '/') {
			return true
		}
	}
	return false
}

// IsByteSlice reports whether t is []byte.
func IsByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// NamedType unwraps pointers and returns the named type of t (resolving
// alias chains), or nil.
func NamedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// NamedIs reports whether t (through pointers and instantiation) is the
// named type pkgPath.name. Generic instantiations match their origin.
func NamedIs(t types.Type, pkgPath, name string) bool {
	n := NamedType(t)
	if n == nil {
		return false
	}
	n = n.Origin()
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
