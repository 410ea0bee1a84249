package flexanalysis

import (
	"fmt"
	"sort"
	"strings"
)

// Suppression-comment convention (documented in doc.go "Statically
// enforced contracts"): a comment of the form
//
//	//flexvet:<pass> <justification>
//
// on the diagnosed line, or on the line immediately above it, suppresses
// that pass's diagnostics on that line. The justification text is
// mandatory by convention (reviewed, not machine-checked). detrange
// additionally accepts the domain spellings //flexvet:ordered for map
// iterations that are provably order-insensitive and //flexvet:unowned
// for events scheduled on the engine directly by something that is not a
// modelled component.
const suppressPrefix = "flexvet:"

// markerAliases maps a suppression-marker name to the analyzer it
// silences when the names differ.
var markerAliases = map[string]string{
	"ordered": "detrange",
	"unowned": "detrange",
}

// suppressions indexes //flexvet: markers by file and line.
type suppressions map[string]map[int][]string // filename -> line -> marker names

func collectSuppressions(pkg *Package) suppressions {
	sup := suppressions{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(text, "/*")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, suppressPrefix) {
					continue
				}
				marker := strings.TrimPrefix(text, suppressPrefix)
				if i := strings.IndexAny(marker, " \t"); i >= 0 {
					marker = marker[:i]
				}
				if marker == "" {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				byLine := sup[pos.Filename]
				if byLine == nil {
					byLine = map[int][]string{}
					sup[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], marker)
			}
		}
	}
	return sup
}

// suppressed reports whether a diagnostic from analyzer at (file, line)
// is silenced by a marker on that line or the line above.
func (s suppressions) suppressed(analyzer, file string, line int) bool {
	byLine := s[file]
	if byLine == nil {
		return false
	}
	for _, l := range [2]int{line, line - 1} {
		for _, m := range byLine[l] {
			if m == analyzer || markerAliases[m] == analyzer {
				return true
			}
		}
	}
	return false
}

// Result is the outcome of running one analyzer over one package.
type Result struct {
	Analyzer   *Analyzer
	Pkg        *Package
	Diags      []Diagnostic
	Suppressed []Diagnostic
}

// RunPackage runs the analyzers over one loaded package, splitting
// diagnostics into active and suppressed per the //flexvet: convention.
// Diagnostics are sorted by position for deterministic output.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Result, error) {
	sup := collectSuppressions(pkg)
	var results []Result
	for _, a := range analyzers {
		var all []Diagnostic
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report: func(d Diagnostic) {
				d.Analyzer = a.Name
				all = append(all, d)
			},
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s over %s: %w", a.Name, pkg.Path, err)
		}
		sort.SliceStable(all, func(i, j int) bool { return all[i].Pos < all[j].Pos })
		res := Result{Analyzer: a, Pkg: pkg}
		for _, d := range all {
			p := pkg.Fset.Position(d.Pos)
			if sup.suppressed(a.Name, p.Filename, p.Line) {
				res.Suppressed = append(res.Suppressed, d)
			} else {
				res.Diags = append(res.Diags, d)
			}
		}
		results = append(results, res)
	}
	return results, nil
}
