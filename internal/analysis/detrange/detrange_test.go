package detrange

import (
	"path/filepath"
	"strings"
	"testing"

	"flextoe/internal/analysis/flexanalysis"
)

func TestDetrange(t *testing.T) {
	l := flexanalysis.NewLoader()
	dir := filepath.Join("testdata", "src", "dettest")
	res := flexanalysis.RunWant(t, l, Analyzer, dir, "flextoe/internal/sim/dettest")

	// The two //flexvet:ordered map scans and the //flexvet:unowned
	// generator must be suppressed, not absent: the pass saw them and the
	// justification silenced them.
	if got := len(res.Suppressed); got != 3 {
		t.Errorf("suppressed diagnostics = %d, want 3 (two //flexvet:ordered scans, one //flexvet:unowned call)", got)
		for _, d := range res.Suppressed {
			t.Logf("  suppressed: %s: %s", d.Posn(res.Pkg.Fset), d.Message)
		}
	}
}

// runAs runs the pass over the testdata package loaded under importPath.
func runAs(t *testing.T, importPath string) flexanalysis.Result {
	t.Helper()
	pkg, err := flexanalysis.NewLoader().Load(filepath.Join("testdata", "src", "dettest"), importPath)
	if err != nil {
		t.Fatal(err)
	}
	results, err := flexanalysis.RunPackage(pkg, []*flexanalysis.Analyzer{Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	return results[0]
}

func TestDetrangeSkipsNonCriticalPackages(t *testing.T) {
	res := runAs(t, "flextoe/internal/stats/dettest")
	if n := len(res.Diags) + len(res.Suppressed); n != 0 {
		t.Errorf("non-critical package produced %d diagnostics, want 0", n)
	}
}

// TestDetrangeUnownedOnlyWhereAppsRun: under internal/apps — not
// critical, but inside a simulation — the unowned-scheduling check
// applies and the map, clock and randomness checks do not.
func TestDetrangeUnownedOnlyWhereAppsRun(t *testing.T) {
	res := runAs(t, "flextoe/internal/apps/dettest")
	for _, d := range res.Diags {
		if !strings.Contains(d.Message, "schedules an unowned event") {
			t.Errorf("%s: %s", d.Posn(res.Pkg.Fset), d.Message)
		}
	}
	if len(res.Diags) != 4 || len(res.Suppressed) != 1 {
		t.Errorf("%d diagnostics, %d suppressed; want the 4 unowned calls and the annotated generator", len(res.Diags), len(res.Suppressed))
	}
}
