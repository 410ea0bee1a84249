package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval at a layer boundary. Spans are recorded
// from the benchmark's side of each call into the program (parse, build,
// warm-up, every window chunk, readout); spans inside the program are a
// later change. Times are nanoseconds since the tracer started.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for the root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	// Counts taken at the same boundary (window chunks only).
	Events uint64 `json:"events,omitempty"`
	Segs   uint64 `json:"segs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run executes the same calls without the
// bookkeeping.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under parent and returns its id (-1 from a nil
// tracer, which end ignores).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload,
		StartNs: time.Since(t.t0).Nanoseconds(),
	})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
}

// total sums the durations of the spans with the given name, in ms.
func (t *tracer) total(name string) float64 {
	var ns int64
	for i := range t.spans {
		if t.spans[i].Name == name {
			ns += t.spans[i].EndNs - t.spans[i].StartNs
		}
	}
	return float64(ns) / 1e6
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Spans       []span             `json:"spans"`
	CPUSamples  int64              `json:"cpu_samples"`
	CPUShares   map[string]float64 `json:"cpu_self_time_shares"`
}

func writeTrace(dir string, tf *traceFile) (string, error) {
	out := filepath.Join(dir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(out, "trace-"+tf.Workload+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
