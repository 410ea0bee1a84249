package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestFirewallSmoke: the firewall blackholes the evil client while the
// good one completes RPCs, the capture of the surviving traffic reads
// back and matches its filter, and once the load stops every pool of the
// testbed's engine has had back all it lent.
func TestFirewallSmoke(t *testing.T) {
	var stdout bytes.Buffer
	if code := run(&stdout); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stdout.String())
	}
	text := stdout.String()
	count := func(re string) string {
		m := regexp.MustCompile(re).FindStringSubmatch(text)
		if m == nil {
			t.Fatalf("no line matches %q:\n%s", re, text)
		}
		return m[1]
	}
	if n := count(`good client completed: (\d+) RPCs`); n == "0" {
		t.Fatalf("the good client completed no RPC:\n%s", text)
	}
	if n := count(`evil client completed: (\d+) RPCs`); n != "0" {
		t.Fatalf("the blocked client completed %s RPCs:\n%s", n, text)
	}
	if n := count(`firewall drops: +(\d+) packets`); n == "0" {
		t.Fatalf("the firewall dropped nothing:\n%s", text)
	}
	if n := count(`capture verified: +(\d+) records`); n == "0" {
		t.Fatalf("the capture holds no record:\n%s", text)
	}
	if !strings.Contains(text, "every loan returned") {
		t.Fatalf("missing the pool check:\n%s", text)
	}
}
