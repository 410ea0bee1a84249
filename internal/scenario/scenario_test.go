package scenario

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// bulkSpec is a small single-switch loss scenario with a flowmon tap —
// the fig15-shaped smoke spec.
func bulkSpec() string {
	return `{
  "name": "bulk-loss",
  "seed": 155,
  "duration_us": 2000,
  "topology": {"kind": "testbed", "switch": {"loss_prob": 0.001}},
  "machines": [
    {"name": "server", "stack": "flextoe", "cores": 2, "buf_bytes": 262144, "sack": true, "seed": 155},
    {"name": "client", "stack": "flextoe", "cores": 2, "buf_bytes": 262144, "sack": true, "seed": 156}
  ],
  "workloads": [
    {"kind": "bulk", "bulk": {"server": "server", "port": 9000, "clients": ["client"], "conns": 4}}
  ],
  "measure": {"flowmon": [{"machine": "client"}], "per_flow": true}
}`
}

// incastSpec is a small fabric incast with per-rack fleets.
func incastSpec() string {
	return `{
  "name": "incast-small",
  "seed": 170004,
  "duration_us": 3000,
  "warmup_us": 1000,
  "topology": {"kind": "fabric", "fabric": {
    "racks": 3, "spines": 2, "queue_hist_unit": 1448,
    "leaf": {"ecn_threshold_bytes": 90000, "queue_cap_bytes": 250000},
    "spine": {"ecn_threshold_bytes": 90000, "queue_cap_bytes": 500000}
  }},
  "machines": [
    {"name": "agg", "stack": "flextoe", "cores": 4, "rack": 0, "buf_bytes": 131072, "cc": "dctcp", "seed": 1700},
    {"name": "snd0", "stack": "flextoe", "cores": 2, "rack": 1, "seed": 1710},
    {"name": "snd1", "stack": "flextoe", "cores": 2, "rack": 2, "seed": 1711}
  ],
  "workloads": [
    {"kind": "incast", "incast": {"agg": "agg", "port": 9400, "senders": ["snd0", "snd1"], "fan_in": 4, "block_bytes": 32768}}
  ],
  "measure": {"per_rack_fleets": true}
}`
}

func mustRun(t *testing.T, spec string, progress Progress) *Result {
	t.Helper()
	r, err := Run([]byte(spec), progress)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r
}

func TestParseRejectsInvalidSpecs(t *testing.T) {
	base := bulkSpec()
	const rpc30000 = `{"kind": "rpc", "rpc": {"server": "server", "port": 9001, "clients": ["client"], "conns": 30000, "req_bytes": 64}}`
	cases := []struct {
		name string
		spec string
		want string // substring of the error
	}{
		{"unknown field", `{"name":"x","bogus":1}`, "unknown field"},
		{"trailing data", base + `{"name":"y"}`, "trailing data"},
		{"missing name", `{"seed":1,"duration_us":10,"topology":{"kind":"testbed"},"machines":[{"name":"a","stack":"flextoe"}],"workloads":[{"kind":"bulk","bulk":{"server":"a","port":1,"clients":["a"]}}]}`, "name is required"},
		{"bad name", strings.Replace(base, `"bulk-loss"`, `"bulk loss"`, 1), "only [a-zA-Z0-9._-]"},
		{"zero duration", strings.Replace(base, `"duration_us": 2000`, `"duration_us": 0`, 1), "duration_us"},
		{"bad topology kind", strings.Replace(base, `"kind": "testbed"`, `"kind": "mesh"`, 1), "topology.kind"},
		{"loss prob out of range", strings.Replace(base, `"loss_prob": 0.001`, `"loss_prob": 1.5`, 1), "probabilities"},
		{"reorder without delay", strings.Replace(base, `"loss_prob": 0.001`, `"reorder_prob": 0.01`, 1), "reorder_delay_us"},
		{"unknown stack", strings.Replace(base, `"stack": "flextoe", "cores": 2, "buf_bytes": 262144, "sack": true, "seed": 155`, `"stack": "bsd"`, 1), "unknown stack"},
		{"duplicate machine", strings.Replace(base, `"name": "server"`, `"name": "client"`, 1), "duplicate machine"},
		{"unknown workload machine", strings.Replace(base, `"clients": ["client"]`, `"clients": ["nope"]`, 1), "unknown machine"},
		{"empty bulk clients", strings.Replace(base, `"clients": ["client"]`, `"clients": []`, 1), "clients must be non-empty"},
		{"zero port", strings.Replace(base, `"port": 9000`, `"port": 0`, 1), "port must be nonzero"},
		{"unknown flowmon machine", strings.Replace(base, `"flowmon": [{"machine": "client"}]`, `"flowmon": [{"machine": "ghost"}]`, 1), "unknown machine"},
		{"duplicate flowmon attach", strings.Replace(base, `[{"machine": "client"}]`, `[{"machine": "client"}, {"machine": "client"}]`, 1), "already has an analyzer"},
		{"fleets on testbed", strings.Replace(base, `"per_flow": true`, `"per_flow": true, "per_rack_fleets": true`, 1), "requires a fabric"},
		{"sack on baseline", strings.Replace(base, `"stack": "flextoe", "cores": 2, "buf_bytes": 262144, "sack": true, "seed": 155`, `"stack": "linux", "sack": true`, 1), "sack applies to flextoe"},
		{"buf_bytes not a power of two", strings.Replace(base, `"buf_bytes": 262144`, `"buf_bytes": 100000`, 1), "buf_bytes must be 0 or a power of two"},
		{"buf_bytes below one window unit", strings.Replace(base, `"buf_bytes": 262144`, `"buf_bytes": 64`, 1), "buf_bytes must be 0 or a power of two"},
		{"buf_bytes above the widest window", strings.Replace(base, `"buf_bytes": 262144`, `"buf_bytes": 16777216`, 1), "buf_bytes must be 0 or a power of two"},
		{"ooo_cap above the flextoe interval array", strings.Replace(base, `"sack": true, "seed": 155`, `"sack": true, "ooo_cap": 16, "seed": 155`, 1), "ooo_cap must be in [0,4] on a flextoe machine"},
		{"ooo_cap above the baseline bound", strings.Replace(base, `"stack": "flextoe", "cores": 2, "buf_bytes": 262144, "sack": true, "seed": 155`, `"stack": "linux", "ooo_cap": 33`, 1), "ooo_cap must be in [0,32] on a linux machine"},
		{"rack out of range", strings.Replace(incastSpec(), `"rack": 2`, `"rack": 7`, 1), "out of range"},
		{"fleets plus flowmon", strings.Replace(incastSpec(), `"per_rack_fleets": true`, `"per_rack_fleets": true, "flowmon": [{"machine": "agg"}]`, 1), "excludes explicit flowmon"},
		{"removed background kind", strings.Replace(base, `"kind": "bulk"`, `"kind": "background"`, 1), "unknown kind"},
		{"removed timeline key", strings.Replace(base, `[{"machine": "client"}]`, `[{"machine": "client", "timeline_bins": 4}]`, 1), "unknown field"},
		{"removed counters key", strings.Replace(base, `"per_flow": true`, `"per_flow": true, "counters": ["stack"]`, 1), "unknown field"},
		{"one dial too many", strings.Replace(base, `"conns": 4`, `"conns": 65536`, 1), `machine "client" dials more than 65535`},
		{"dials summed over workloads", strings.Replace(base, `"conns": 4}}`, `"conns": 40000}}, `+rpc30000, 1), `machine "client" dials more than 65535`},
		{"rpc conns per listed client", strings.Replace(base, `"kind": "bulk", "bulk": {"server": "server", "port": 9000, "clients": ["client"], "conns": 4}`,
			`"kind": "rpc", "rpc": {"server": "server", "port": 9000, "clients": ["client", "client"], "conns": 32768, "req_bytes": 64}`, 1), `machine "client" dials more than 65535`},
		{"round-robin share", strings.Replace(incastSpec(), `"fan_in": 4`, `"fan_in": 131071`, 1), `machine "snd0" dials more than 65535`},
	}
	for _, tc := range cases {
		if _, err := Parse([]byte(tc.spec)); err == nil {
			t.Errorf("%s: Parse accepted an invalid spec", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// The flextoe bound is the personality's, not a new global one.
	linux32 := strings.Replace(base, `"stack": "flextoe", "cores": 2, "buf_bytes": 262144, "sack": true, "seed": 155`, `"stack": "linux", "ooo_cap": 32`, 1)
	if _, err := Parse([]byte(linux32)); err != nil {
		t.Errorf("ooo_cap 32 on a linux machine: %v", err)
	}
	// A machine has 65 535 ephemeral ports, and each block of the summed
	// pair above fits on its own.
	for _, ok := range [][2]string{
		{"65535 dials", strings.Replace(base, `"conns": 4`, `"conns": 65535`, 1)},
		{"bulk 40000 alone", strings.Replace(base, `"conns": 4`, `"conns": 40000`, 1)},
		{"rpc 30000 alone", strings.Replace(base, `"conns": 4}}`, `"conns": 4}}, `+rpc30000, 1)},
		{"65535 per sender", strings.Replace(incastSpec(), `"fan_in": 4`, `"fan_in": 131070`, 1)},
	} {
		name, spec := ok[0], ok[1]
		if _, err := Parse([]byte(spec)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestDuplicateListenerRejected(t *testing.T) {
	spec := strings.Replace(bulkSpec(),
		`{"kind": "bulk", "bulk": {"server": "server", "port": 9000, "clients": ["client"], "conns": 4}}`,
		`{"kind": "bulk", "bulk": {"server": "server", "port": 9000, "clients": ["client"], "conns": 4}},
     {"kind": "rpc", "rpc": {"server": "server", "port": 9000, "clients": ["client"], "conns": 1, "req_bytes": 64}}`, 1)
	if _, err := Parse([]byte(spec)); err == nil || !strings.Contains(err.Error(), "duplicate listener") {
		t.Fatalf("want duplicate-listener error, got %v", err)
	}
}

func TestBulkScenarioSmoke(t *testing.T) {
	r := mustRun(t, bulkSpec(), nil)
	if len(r.Workloads) != 1 || r.Workloads[0].Bytes == 0 {
		t.Fatalf("bulk moved no bytes: %+v", r.Workloads)
	}
	if r.Switch == nil || r.Switch.Forwarded == 0 {
		t.Fatalf("switch counters missing: %+v", r.Switch)
	}
	if len(r.Machines) != 2 {
		t.Fatalf("want 2 machine results, got %d", len(r.Machines))
	}
	if len(r.Flowmon) != 1 || r.Flowmon[0].Machine != "client" || r.Flowmon[0].Pkts == 0 {
		t.Fatalf("flowmon result missing: %+v", r.Flowmon)
	}
	if len(r.Flows) == 0 {
		t.Fatalf("per_flow requested but no flow records")
	}
}

func TestRerunIsByteIdentical(t *testing.T) {
	a := mustRun(t, bulkSpec(), nil).Canonical()
	b := mustRun(t, bulkSpec(), nil).Canonical()
	if !bytes.Equal(a, b) {
		t.Fatalf("same spec produced different payloads:\n%s\n---\n%s", a, b)
	}
}

func TestChunkedRunMatchesUnchunked(t *testing.T) {
	plain := mustRun(t, bulkSpec(), nil).Canonical()
	var calls int
	chunked := mustRun(t, bulkSpec(), func(doneUs, totalUs int64) bool {
		calls++
		if totalUs != 2000 {
			t.Fatalf("totalUs = %d", totalUs)
		}
		return true
	}).Canonical()
	if calls < 2 {
		t.Fatalf("progress called %d times", calls)
	}
	if !bytes.Equal(plain, chunked) {
		t.Fatalf("chunked execution changed the payload")
	}
}

// TestCoresFieldInvariance pins the vestigial Spec.Cores: "cores": 3
// changes nothing in the payload but the echoed Result.Cores.
func TestCoresFieldInvariance(t *testing.T) {
	plain := mustRun(t, bulkSpec(), nil)
	withCores := mustRun(t, strings.Replace(bulkSpec(),
		`"duration_us": 2000,`, `"duration_us": 2000, "cores": 3,`, 1), nil)
	if plain.Cores != 1 || withCores.Cores != 3 {
		t.Fatalf("echoed cores = %d and %d, want 1 and 3", plain.Cores, withCores.Cores)
	}
	withCores.Cores = plain.Cores
	if !bytes.Equal(plain.Canonical(), withCores.Canonical()) {
		t.Fatalf("cores changed the payload:\n%s\n---\n%s",
			plain.Canonical(), withCores.Canonical())
	}
}

func TestCancelMidRun(t *testing.T) {
	_, err := Run([]byte(bulkSpec()), func(doneUs, totalUs int64) bool {
		return doneUs == 0 // allow the initial call, cancel after chunk 1
	})
	if err != ErrCanceled {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

func TestIncastFabricScenario(t *testing.T) {
	r := mustRun(t, incastSpec(), nil)
	w := r.Workloads[0]
	if w.Kind != KindIncast || w.Rounds == 0 || w.P99Us <= 0 {
		t.Fatalf("incast made no progress: %+v", w)
	}
	if r.Fabric == nil || len(r.Fabric.SpineTxBytes) != 2 {
		t.Fatalf("fabric counters missing: %+v", r.Fabric)
	}
	if len(r.Racks) != 3 {
		t.Fatalf("want 3 rack results, got %d", len(r.Racks))
	}
	var pkts, spineFlows uint64
	for _, rr := range r.Racks {
		pkts += rr.Pkts
		if len(rr.Spines) != 2 {
			t.Fatalf("rack %d: want 2 spine splits, got %d", rr.Rack, len(rr.Spines))
		}
		for _, sp := range rr.Spines {
			spineFlows += sp.Flows
		}
		if spineFlows != rr.Flows {
			// Spine splits partition the rack's flows exactly.
			t.Fatalf("rack %d: spine splits cover %d of %d flows", rr.Rack, spineFlows, rr.Flows)
		}
		spineFlows = 0
	}
	if pkts == 0 {
		t.Fatalf("rack fleets observed no packets")
	}
	if rerun := mustRun(t, incastSpec(), nil); !bytes.Equal(r.Canonical(), rerun.Canonical()) {
		t.Fatalf("incast rerun diverged")
	}
}

func TestWarmupResetsMeasurement(t *testing.T) {
	// A warmup longer than the measured window must shrink the measured
	// byte count versus no warmup (the warmup traffic is excluded).
	cold := mustRun(t, incastSpec(), nil)
	noWarm := mustRun(t, strings.Replace(incastSpec(), `"warmup_us": 1000,`, ``, 1), nil)
	if cold.Workloads[0].Bytes == 0 || noWarm.Workloads[0].Bytes == 0 {
		t.Fatalf("no bytes moved")
	}
	if cold.Workloads[0].Bytes >= noWarm.Workloads[0].Bytes+cold.Workloads[0].Bytes/2 {
		t.Logf("warmup delta: warm=%d nowarm=%d", cold.Workloads[0].Bytes, noWarm.Workloads[0].Bytes)
	}
	if cold.WarmupUs != 1000 {
		t.Fatalf("warmup not echoed: %d", cold.WarmupUs)
	}
}

func TestExecuteOnlyOnce(t *testing.T) {
	s, err := Parse([]byte(bulkSpec()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Execute(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Execute(nil); err == nil {
		t.Fatal("second Execute succeeded")
	}
}

// TestConcurrentJobsMatchSolo: two jobs built and executed at the same time
// on two goroutines produce the payloads each produces alone. Nothing a
// testbed's order depends on — link ids, owner ranks, pools — lives outside
// its engine (run under -race).
func TestConcurrentJobsMatchSolo(t *testing.T) {
	specs := []string{bulkSpec(), incastSpec()}
	solo := make([][]byte, len(specs))
	for i, s := range specs {
		solo[i] = mustRun(t, s, nil).Canonical()
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, s := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for n := 0; n < 3; n++ {
				r, err := Run([]byte(s), nil)
				if err != nil {
					t.Errorf("spec %d: %v", i, err)
					return
				}
				if !bytes.Equal(r.Canonical(), solo[i]) {
					t.Errorf("spec %d, concurrent run %d: payload differs from the solo run", i, n)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}
