// Package experiments regenerates every table and figure in the paper's
// evaluation (§5, Tables 1-4 and 6, Figures 8-16): each runner builds the
// matching workload on the simulated testbed, executes it, and returns
// the same rows/series the paper reports. cmd/flexbench prints them;
// bench_test.go wraps each in a testing.B benchmark.
//
// Every runner accepts a Scale: Quick shrinks durations and sweep points
// for CI/benchmark runs; Full approaches the paper's parameters; Cores
// spreads a run's independent sweep cells over a worker pool of host
// cores without changing any result (TestCellsMatchSerial).
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"flextoe/internal/scenario"
	"flextoe/internal/sim"
	"flextoe/internal/testbed"
)

// mustScenario builds and executes a programmatic scenario spec — the
// bridge the refactored figure runners use so their specs are proven
// equivalent to the hand-built harnesses they replaced. Experiment specs
// are authored in-repo, so any error is a bug.
func mustScenario(spec *scenario.Spec) (*scenario.Built, *scenario.Result) {
	b, err := scenario.Build(spec)
	if err != nil {
		panic("experiments: bad scenario spec: " + err.Error())
	}
	r, err := b.Execute(nil)
	if err != nil {
		panic("experiments: scenario execute: " + err.Error())
	}
	return b, r
}

// Scale selects experiment fidelity and host-core usage.
type Scale struct {
	Full  bool // paper-scale durations and sweep points
	Cores int  // host cores to spread the run over (<=1: serial)
}

// Scales. Quick shrinks durations/sweeps for CI; Full approaches the
// paper's parameters. Both run serial; set Cores for parallel execution.
var (
	Quick = Scale{}
	Full  = Scale{Full: true}
)

// dur returns a simulated duration scaled to the fidelity level.
func (s Scale) dur(quick, full sim.Time) sim.Time {
	if s.Full {
		return full
	}
	return quick
}

func (s Scale) pick(quick, full []int) []int {
	if s.Full {
		return full
	}
	return quick
}

// cores returns the worker budget (at least 1).
func (s Scale) cores() int {
	if s.Cores < 1 {
		return 1
	}
	return s.Cores
}

// cells runs cell(0) … cell(n-1) on up to workers goroutines and returns
// their results in index order. Each cell is a self-contained seeded
// testbed, so the output is bit-identical to the serial loop regardless of
// scheduling: cross-cell state is nil by construction (per-engine pools,
// link ids and owner ranks, per-testbed switch RNGs).
func cells[T any](workers, n int, cell func(i int) T) []T {
	out := make([]T, n)
	if workers > n {
		workers = n
	}
	// More runnable goroutines than CPUs buys nothing for CPU-bound cells
	// and interleaves their working sets; clamp to the scheduler's budget.
	if p := runtime.GOMAXPROCS(0); workers > p {
		workers = p
	}
	if workers < 2 {
		for i := range out {
			out[i] = cell(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = cell(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// Table is one regenerated result table/figure.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// f1, f2, f3 format floats at fixed precision.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// mops converts ops over a duration to millions of ops per second.
func mops(ops uint64, d sim.Time) float64 {
	return float64(ops) / d.Seconds() / 1e6
}

// gbps converts bytes over a duration to gigabits per second.
func gbps(bytes uint64, d sim.Time) float64 {
	return float64(bytes) * 8 / d.Seconds() / 1e9
}

// usOf converts picoseconds to microseconds.
func usOf(ps int64) float64 { return float64(ps) / 1e6 }

// serverSpec builds a server machine spec for a stack kind with
// totalCores application cores. TAS's dedicated fast path runs on
// additional host cores outside that budget: one, or two from 8 cores up.
func serverSpec(kind testbed.StackKind, totalCores int, seed uint64) testbed.MachineSpec {
	spec := testbed.MachineSpec{Name: "server", Kind: kind, Cores: totalCores, Seed: seed}
	if kind == testbed.TAS {
		spec.StackCores = 1
		if totalCores >= 8 {
			spec.StackCores = 2
		}
	}
	return spec
}

// Runner is a named experiment.
type Runner struct {
	ID   string
	Desc string
	Run  func(Scale) []*Table
}

// All returns every experiment runner, in the paper's order.
func All() []Runner {
	return []Runner{
		{"table1", "Per-request CPU impact of TCP processing", Table1},
		{"table2", "Performance with flexible extensions", Table2},
		{"table3", "FlexTOE data-path parallelism breakdown", Table3},
		{"table4", "FlexTOE congestion control under incast", Table4},
		{"table5", "Connection state partitioning", Table5},
		{"table6", "TAS TCP/IP processing breakdown", Table6},
		{"fig8", "Memcached throughput scalability", Fig8},
		{"fig9", "Latency of server-client stack combinations", Fig9},
		{"fig10", "RPC throughput for saturated server", Fig10},
		{"fig11", "Median and tail RPC RTT vs message size", Fig11},
		{"fig12", "Large RPC per-connection throughput", Fig12},
		{"fig13", "Connection scalability", Fig13},
		{"fig14", "Data-path parallelism on BlueField/x86", Fig14},
		{"fig15", "Throughput under packet loss", Fig15},
		{"fig16", "Connection fairness at line rate", Fig16},
		{"fig17", "Leaf-spine fabric: incast fan-in and ECMP balance", Fig17},
		{"fig9conn", "Connection scale: state, timers, and churn to 10^6 flows", Fig9Conn},
	}
}

// ByID returns a runner by its identifier.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}
