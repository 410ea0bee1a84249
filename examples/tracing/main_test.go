package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flextoe/internal/pcap"
)

// TestTraceModeSmoke is the CI smoke: the example exits 0, reports
// nonzero tracepoint counters and completed RPCs, and the written pcap
// parses back.
func TestTraceModeSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.pcap")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-w", out, "-ms", "5"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s\nstdout:\n%s", code, stderr.String(), stdout.String())
	}
	text := stdout.String()
	if strings.Contains(text, "completed 0 RPCs") {
		t.Fatalf("no RPCs completed:\n%s", text)
	}
	if !strings.Contains(text, "tracepoint counters:") {
		t.Fatalf("missing tracepoint section:\n%s", text)
	}
	if !strings.Contains(text, "flow analysis") || !strings.Contains(text, "rtt samples") {
		t.Fatalf("missing flow analysis section:\n%s", text)
	}
	if !strings.Contains(text, "capture matches the live tap") {
		t.Fatalf("pcap read-back diverged:\n%s", text)
	}

	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := pcap.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	for {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		records++
	}
	if records == 0 {
		t.Fatal("pcap is empty")
	}
}
