package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"flextoe/internal/scenario"
)

// runSeconds is BENCHMARK.json's run_seconds: the host-time window the
// simulated durations in workloads/*.json are sized for on the reference
// box. --seconds scales the simulated duration by seconds/runSeconds, so
// the work is fixed and host time is what gets measured.
const runSeconds = 16

// benchDir locates the benchmark's own directory from the working
// directory: the repository root (how the driver and `go run ./bench`
// start it) or the package directory (how `go test` starts it).
func benchDir() (string, error) {
	for _, d := range []string{"bench", "."} {
		if st, err := os.Stat(filepath.Join(d, "workloads")); err == nil && st.IsDir() {
			return d, nil
		}
	}
	return "", fmt.Errorf("bench: no workloads directory under ./bench or .; run from the repository root")
}

// workloadNames lists the specs in workloads/, sorted.
func workloadNames(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "workloads", "*.json"))
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(files))
	for _, f := range files {
		names = append(names, strings.TrimSuffix(filepath.Base(f), ".json"))
	}
	sort.Strings(names)
	return names, nil
}

// loadSpec reads a workload file and rewrites its seed, returning spec
// bytes at the file's own duration. Workload files set no per-machine or
// per-workload seeds, so --seed reaches every random stream.
func loadSpec(dir, name string, seed uint64) ([]byte, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "workloads", name+".json"))
	if err != nil {
		return nil, fmt.Errorf("bench: workload %q: %w", name, err)
	}
	spec, err := scenario.Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("bench: workload %q: %w", name, err)
	}
	spec.Seed = seed
	return json.Marshal(spec)
}

// withDuration returns the spec bytes with the measured duration scaled;
// the floor keeps every one of Execute's 32 progress chunks non-empty.
func withDuration(specBytes []byte, scale float64) ([]byte, error) {
	spec, err := scenario.Parse(specBytes)
	if err != nil {
		return nil, err
	}
	spec.DurationUs = max(64, int64(float64(spec.DurationUs)*scale))
	return json.Marshal(spec)
}

// accounting is what a spec asks for, in the units the result line's
// attempted/failed use.
type accounting struct {
	conns    int    // simulated connections the workload blocks request
	standing uint64 // operations a closed loop keeps in flight at any instant
}

// accountFor derives the requested connections and the standing
// in-flight operations from the workload blocks. Only the closed-loop
// kinds the benchmark uses are countable; an open-loop block would need
// a due-time accounting this benchmark does not have.
func accountFor(s *scenario.Spec) (accounting, error) {
	var a accounting
	for i := range s.Workloads {
		w := &s.Workloads[i]
		switch w.Kind {
		case scenario.KindBulk:
			n := w.Bulk.Conns
			if n == 0 {
				n = len(w.Bulk.Clients)
			}
			a.conns += n
		case scenario.KindRPC:
			n := w.RPC.Conns * len(w.RPC.Clients)
			a.conns += n
			a.standing += uint64(n * max(1, w.RPC.Pipeline))
		case scenario.KindKV:
			n := w.KV.Conns * len(w.KV.Clients)
			a.conns += n
			a.standing += uint64(n * max(1, w.KV.Pipeline))
		case scenario.KindIncast:
			a.conns += w.Incast.FanIn
			a.standing += uint64(w.Incast.FanIn)
		default:
			return a, fmt.Errorf("bench: workload kind %q has no operation accounting", w.Kind)
		}
	}
	return a, nil
}

// bulkUnit is the operation size bulk transfers are counted in.
const bulkUnit = 64 << 10

// completedOps counts the application operations each workload block
// finished in the measured window: KV operations, RPCs, incast block
// transfers, and 64 KiB units of bulk payload.
func completedOps(s *scenario.Spec, res *scenario.Result) []uint64 {
	ops := make([]uint64, len(res.Workloads))
	for i, w := range res.Workloads {
		switch w.Kind {
		case scenario.KindBulk:
			ops[i] = w.Bytes / bulkUnit
		case scenario.KindIncast:
			ops[i] = w.Rounds * uint64(s.Workloads[i].Incast.FanIn)
		default:
			ops[i] = w.Ops
		}
	}
	return ops
}
