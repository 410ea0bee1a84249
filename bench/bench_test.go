package main

import (
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"

	"flextoe/internal/scenario"
)

// TestSmoke runs every workload at 1/100 of its work, untraced and
// traced, and holds the output to BENCHMARK.json: every metric named
// there is emitted exactly once with its unit, nothing else is emitted,
// nothing fails, and the profile's shares account for all sampled time.
func TestSmoke(t *testing.T) {
	dir, err := benchDir()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, the workloads are sized for %d", bj.RunSeconds, runSeconds)
	}
	names, err := workloadNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, w := range bj.Workloads {
		listed[w.Name] = true
	}
	if len(names) != len(listed) {
		t.Errorf("workloads/ holds %v, BENCHMARK.json lists %d workloads", names, len(listed))
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, name := range names {
		if !listed[name] {
			t.Errorf("workloads/%s.json is not in BENCHMARK.json", name)
		}
		full, err := loadSpec(dir, name, 7)
		if err != nil {
			t.Fatal(err)
		}
		// A tenth of the warm-up still covers every handshake and keeps
		// the test inside a few seconds.
		spec, err := scenario.Parse(full)
		if err != nil {
			t.Fatal(err)
		}
		spec.WarmupUs /= 10
		if full, err = json.Marshal(spec); err != nil {
			t.Fatal(err)
		}
		for _, trace := range []bool{false, true} {
			want := bj.EndToEnd
			if trace {
				want = bj.PerLayer
			}
			o, err := runWorkload(dir, full, 0.01, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			t.Logf("%s trace=%v: %.2f s", name, trace, o.totalS)
			if !o.correct || o.failed != 0 || o.attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%v", name, trace, o.correct, o.attempted, o.failed, o.notes)
			}
			got := map[string]string{}
			var shares float64
			for _, m := range o.metrics {
				if _, dup := got[m.name]; dup {
					t.Errorf("%s trace=%v: metric %s emitted twice", name, trace, m.name)
				}
				got[m.name] = m.unit
				if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
					t.Errorf("%s: metric %q unit %q outside the benchmark contract's alphabet", name, m.name, m.unit)
				}
				if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s trace=%v: metric %s = %v", name, trace, m.name, m.value)
				}
				if strings.HasSuffix(m.name, "cpu_share") {
					shares += m.value
				}
			}
			for _, w := range want {
				if unit, ok := got[w.Name]; !ok || unit != w.Unit {
					t.Errorf("%s trace=%v: BENCHMARK.json names %s [%s], run emitted [%s] (present=%v)", name, trace, w.Name, w.Unit, unit, ok)
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: emitted %d metrics, BENCHMARK.json names %d", name, trace, len(got), len(want))
			}
			if trace && math.Abs(shares-1) > 0.02 {
				t.Errorf("%s: cpu shares sum to %v", name, shares)
			}
		}
	}
}

// TestQuartilesMatchPython pins the quartile rule to the values Python's
// statistics.quantiles(data, n=4) gives, since the driver uses that.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 9, 4, 8, 5, 7, 6})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, Python gives 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two values = %v %v %v, Python gives 0.75 1.5 2.25", q1, q2, q3)
	}
}
