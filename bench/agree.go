package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// manifest is BENCHMARK.json as -agree and the smoke test read it.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// agreeSeeds is how many seeds one set runs; each set uses seeds 1..N.
const agreeSeeds = 10

// oneRun starts this program again for one workload and seed — peak RSS
// is per process, so a run must be a process, as it is for the driver —
// and returns its result line and result_sha256.
func oneRun(workload string, seed int, seconds float64, stderr io.Writer) (*resultLine, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, "", fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, "", fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	digest := ""
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "result_sha256 "); ok {
			digest = rest
		}
	}
	return &line, digest, nil
}

// agreeMain does what the benchmark driver does to accept a benchmark:
// two sets of ten seeds per workload, and for each end-to-end metric the
// interquartile spread over the median within each set and the two
// medians against each other, all within the metric's bound. The same
// seed must also produce the same result payload in both sets.
func agreeMain(dir string, seconds float64, stdout, stderr io.Writer) int {
	m, err := readManifest(dir)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	bad := 0
	for _, w := range m.Workloads {
		var sets [2]map[string][]float64
		var digests [2][]string
		for s := range sets {
			sets[s] = map[string][]float64{}
			for seed := 1; seed <= agreeSeeds; seed++ {
				line, digest, err := oneRun(w.Name, seed, seconds, stderr)
				if err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
				for name, v := range line.Metrics {
					sets[s][name] = append(sets[s][name], v.Value)
				}
				digests[s] = append(digests[s], fmt.Sprintf("%s/%d", digest, line.Attempted))
				fmt.Fprintf(stderr, "%s set %d seed %d:", w.Name, s+1, seed)
				for _, e := range m.EndToEnd {
					fmt.Fprintf(stderr, " %s %.6g", e.Name, line.Metrics[e.Name].Value)
				}
				fmt.Fprintln(stderr)
			}
		}
		for i := range digests[0] {
			if digests[0][i] != digests[1][i] {
				fmt.Fprintf(stdout, "%s seed %d: result payload or attempted count differs between the sets\n", w.Name, i+1)
				bad++
			}
		}
		fmt.Fprintf(stdout, "%-14s %-17s %12s %12s %8s %8s %6s  n=%d per set\n", w.Name, "metric", "median 1", "median 2", "spread 1", "spread 2", "bound", agreeSeeds)
		for _, e := range m.EndToEnd {
			var med, spread [2]float64
			for s := range sets {
				q1, q2, q3 := quartiles(sets[s][e.Name])
				med[s], spread[s] = q2, (q3-q1)/q2
			}
			worse := med[1]/med[0] - 1
			if e.Better == "higher" {
				worse = med[0]/med[1] - 1
			}
			verdict := "ok"
			switch {
			case worse > e.Bound:
				verdict = "FAIL: second median worse than the first by more than the bound"
				bad++
			case e.Name != "setup_s" && max(spread[0], spread[1]) > e.Bound:
				verdict = "FAIL: spread exceeds the bound"
				bad++
			case e.Name != "setup_s" && max(spread[0], spread[1]) > e.Bound/3:
				verdict = "steady enough to pass, but a spread is above a third of the bound"
			}
			fmt.Fprintf(stdout, "%-14s %-17s %12.6g %12.6g %8.4f %8.4f %6.2f  %s\n",
				"", e.Name+" ["+e.Unit+"]", med[0], med[1], spread[0], spread[1], e.Bound, verdict)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
