package hotclosure

import (
	"path/filepath"
	"testing"

	"flextoe/internal/analysis/flexanalysis"
)

func TestHotclosure(t *testing.T) {
	l := flexanalysis.NewLoader()
	dir := filepath.Join("testdata", "src", "hctest")
	res := flexanalysis.RunWant(t, l, Analyzer, dir, "flextoe/internal/core/hctest")

	if got := len(res.Suppressed); got != 1 {
		t.Errorf("suppressed diagnostics = %d, want 1 (//flexvet:hotclosure once-per-connection site)", got)
	}
}
