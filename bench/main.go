// Command bench is the repository benchmark (BENCHMARK.json): it runs one
// workload from bench/workloads through the public scenario path —
// scenario.Parse, scenario.Build, Built.TB.Run for dial and warm-up,
// Built.Execute with a progress callback, Built.FlowRecords,
// Result.Canonical — measures host time per unit of simulated work,
// checks the output, and prints every metric by name with its unit; the
// last line of standard output is the result as one JSON object.
//
//	go run ./bench --workload kv_flextoe --seed 1 --seconds 16 --trace 0
//	go run ./bench --workload kv_flextoe --seed 1 --seconds 16 --trace 1
//	go run ./bench -agree
//
// The load generator is this process: one event-loop goroutine,
// GOMAXPROCS = min(2, nproc), no sockets. bench/README.md defines every
// workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name (a file in bench/workloads without .json)")
	seed := fs.Uint64("seed", 1, "input seed: rewrites the spec's seed")
	seconds := fs.Float64("seconds", runSeconds, "host seconds the measured window is sized for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics, span file")
	agree := fs.Bool("agree", false, "run ten seeds x two sets per workload and compare the sets within the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	dir, err := benchDir()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *agree {
		return agreeMain(dir, *seconds, stdout, stderr)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: --seconds must be > 0, --trace 0 or 1, and no positional arguments")
		return 2
	}
	names, err := workloadNames(dir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	known := false
	for _, n := range names {
		known = known || n == *workload
	}
	if !known {
		fmt.Fprintf(stderr, "bench: unknown workload %q; have %s\n", *workload, strings.Join(names, ", "))
		return 2
	}
	fullSpec, err := loadSpec(dir, *workload, *seed)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	o, err := runWorkload(dir, fullSpec, *seconds/runSeconds, *trace == 1)
	if err != nil {
		// The pass itself broke: everything attempted counts as failed.
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := o.print(stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !o.correct || o.failed > 0 {
		return 1
	}
	return 0
}

// resultLine is the last line of standard output, exactly these keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable report and then the result line. It
// fails, before writing anything, on a metric JSON cannot carry (NaN or
// infinite): such a run has no result.
func (o *outcome) print(w io.Writer) error {
	line := resultLine{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, m := range o.metrics {
		line.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	fmt.Fprintf(w, "workload %s  seed %d  trace %v\n", o.workload, o.seed, o.trace)
	fp := o.fp
	fmt.Fprintf(w, "machine  %s; nproc %d; GOMAXPROCS %d; %s; GOGC %s; load %s; steal %.2f%% of CPU time over the run\n",
		fp.CPUModel, fp.NumCPU, fp.GOMAXPROCS, fp.GoVersion, fp.GOGC, fp.LoadAvg, 100*fp.StealShare)
	fmt.Fprintf(w, "window   %.2f s of host time in %d chunks; whole run %.2f s\n", o.windowS, o.chunks, o.totalS)
	fmt.Fprintf(w, "result_sha256 %s\n", o.sha)
	for _, m := range o.metrics {
		samples := ""
		if m.n > 0 {
			samples = fmt.Sprintf("  (n=%d)", m.n)
		}
		fmt.Fprintf(w, "  %-34s %16.6g %s%s\n", m.name, m.value, m.unit, samples)
	}
	if o.tracePath != "" {
		fmt.Fprintf(w, "spans written to %s\n", o.tracePath)
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", n)
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
