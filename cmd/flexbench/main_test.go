package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDispatchUsageErrors pins the CLI contract: unknown subcommands and
// bad flags print usage on stderr and exit 2, and never write to stdout.
func TestDispatchUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown subcommand", []string{"frobnicate"}},
		{"unknown flag", []string{"-definitely-not-a-flag"}},
		{"serve unknown flag", []string{"serve", "-bogus"}},
		{"serve positional arg", []string{"serve", "extra"}},
		{"run without a spec", []string{"run"}},
		{"run with two specs", []string{"run", "a.json", "b.json"}},
		{"unknown id after flags", []string{"-cores", "2", "nope"}},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit code %d, want 2", tc.name, code)
		}
		if !strings.Contains(stderr.String(), "usage: flexbench") {
			t.Errorf("%s: stderr lacks usage:\n%s", tc.name, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: usage error wrote to stdout: %q", tc.name, stdout.String())
		}
	}
}

func TestDispatchList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d: %s", code, stderr.String())
	}
	for _, id := range []string{"table1", "fig15", "fig17"} {
		if !strings.Contains(stdout.String(), id) {
			t.Errorf("-list output lacks %q", id)
		}
	}
	if stderr.Len() != 0 {
		t.Errorf("-list wrote to stderr: %q", stderr.String())
	}
}

// TestCoresOutputMatchesSerial: -cores spreads sweep cells over workers
// and changes nothing a reader can see — the same bytes as the serial
// run, apart from the wall-clock "[id completed in …]" line.
func TestCoresOutputMatchesSerial(t *testing.T) {
	tables := func(cores string) string {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-cores", cores, "fig8"}, &stdout, &stderr); code != 0 {
			t.Fatalf("-cores %s fig8 exited %d: %s", cores, code, stderr.String())
		}
		var kept []string
		for _, line := range strings.Split(stdout.String(), "\n") {
			if !strings.HasPrefix(line, "[fig8 completed in ") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	serial, parallel := tables("1"), tables("2")
	if !strings.Contains(serial, "Figure 8") {
		t.Fatalf("no Figure 8 table in the output:\n%s", serial)
	}
	if serial != parallel {
		t.Errorf("-cores 2 output differs from -cores 1:\n%s\n--- serial:\n%s", parallel, serial)
	}
}

const exampleSpec = "../../examples/scenarios/fig15c-loss-sweep.json"

// TestRunSpecDeterministic: `flexbench run` prints the canonical result
// payload, byte-identical on a rerun of the same spec.
func TestRunSpecDeterministic(t *testing.T) {
	var outs [2]bytes.Buffer
	for i := range outs {
		var stderr bytes.Buffer
		if code := run([]string{"run", exampleSpec}, &outs[i], &stderr); code != 0 {
			t.Fatalf("run exited %d: %s", code, stderr.String())
		}
		if stderr.Len() != 0 {
			t.Errorf("run wrote to stderr: %q", stderr.String())
		}
	}
	if !strings.Contains(outs[0].String(), `"workloads"`) {
		t.Fatalf("stdout is not a result payload:\n%s", outs[0].String())
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Error("same spec twice produced different bytes")
	}
}

// TestRunSpecErrors: a spec that cannot be read or fails validation (the
// empty-clients spec that once divided by zero in a worker, the
// buf_bytes that once panicked in shm.NewPayloadBuf mid-run, the ooo_cap
// a flextoe machine once clamped to 4 without a word) prints a one-line
// error on stderr and exits 1 — no usage text, no stdout, no panic.
func TestRunSpecErrors(t *testing.T) {
	good, err := os.ReadFile(exampleSpec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "missing.json")}
	for _, edit := range [][2]string{
		{`"clients": ["client"]`, `"clients": []`},
		{`"buf_bytes": 524288`, `"buf_bytes": 100000`},
		{`"ooo_cap": 4`, `"ooo_cap": 16`},
		{`"conns": 8`, `"conns": 65536`},
	} {
		bad := bytes.Replace(good, []byte(edit[0]), []byte(edit[1]), 1)
		if bytes.Equal(bad, good) {
			t.Fatalf("example spec no longer has the %s this test edits", edit[0])
		}
		path := filepath.Join(dir, fmt.Sprintf("bad%d.json", len(paths)))
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	for _, path := range paths {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"run", path}, &stdout, &stderr); code != 1 {
			t.Errorf("%s: exit code %d, want 1", path, code)
		}
		if stderr.Len() == 0 || strings.Contains(stderr.String(), "usage: flexbench") ||
			strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%s: stderr should carry a one-line error and no usage:\n%s", path, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: failed run wrote to stdout: %q", path, stdout.String())
		}
	}
}
