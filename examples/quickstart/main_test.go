package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestQuickstartSmoke: the echo over the views completes RPCs, and once
// the load stops every pool of the testbed's engine has had back all it
// lent.
func TestQuickstartSmoke(t *testing.T) {
	var stdout bytes.Buffer
	if code := run(&stdout); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stdout.String())
	}
	text := stdout.String()
	if m := regexp.MustCompile(`completed RPCs: +(\d+)`).FindStringSubmatch(text); m == nil || m[1] == "0" {
		t.Fatalf("no RPCs completed:\n%s", text)
	}
	if !strings.Contains(text, "every loan returned") {
		t.Fatalf("missing the pool check:\n%s", text)
	}
}
