package flexanalysis

import (
	"regexp"
	"strings"
	"testing"
)

// RunWant is the analysistest-style harness: it loads the package in dir
// under the synthetic import path importPath, runs one analyzer, and
// checks the active (unsuppressed) diagnostics against `// want`
// expectations in the source.
//
// An expectation is a comment of the form
//
//	// want `regexp` `regexp` ...
//
// (double-quoted Go strings also work). Each diagnostic must match an
// expectation on its line, and every expectation must be matched exactly
// once. Suppressed diagnostics (//flexvet: markers) are asserted NOT to
// appear — a want comment and a suppression on the same line is a test
// authoring error.
func RunWant(t *testing.T, l *Loader, a *Analyzer, dir, importPath string) *Result {
	t.Helper()
	pkg, err := l.Load(dir, importPath)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	results, err := RunPackage(pkg, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	res := results[0]

	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, pat := range splitWant(rest) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	for _, d := range res.Diags {
		pos := pkg.Fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		matched := -1
		for i, re := range wants[k] {
			if re != nil && re.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
			continue
		}
		wants[k][matched] = nil // consumed
	}
	for k, res := range wants {
		for _, re := range res {
			if re != nil {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
			}
		}
	}
	return &res
}

// splitWant extracts the quoted patterns from a want comment tail.
func splitWant(s string) []string {
	var pats []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return pats
		}
		quote := s[0]
		if quote != '`' && quote != '"' {
			return pats
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			return append(pats, s[1:])
		}
		pats = append(pats, s[1:1+end])
		s = s[end+2:]
	}
}
