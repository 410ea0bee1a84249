package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestSplicingSmoke: the XDP program forwards the generator's frames and
// the sink receives every one of them, and once the testbed goes quiet
// every frame — the generator's too, drawn from the engine's pool — is
// back.
func TestSplicingSmoke(t *testing.T) {
	var stdout bytes.Buffer
	if code := run(&stdout); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stdout.String())
	}
	text := stdout.String()
	m := regexp.MustCompile(`\((\d+) frames forwarded, (\d+) received at sink\)`).FindStringSubmatch(text)
	if m == nil || m[1] == "0" || m[1] != m[2] {
		t.Fatalf("frames not forwarded and delivered one for one:\n%s", text)
	}
	if !strings.Contains(text, "every loan returned") {
		t.Fatalf("missing the pool check:\n%s", text)
	}
}
