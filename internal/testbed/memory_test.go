package testbed

import (
	"fmt"
	"runtime"
	"testing"

	"flextoe/internal/core"
	"flextoe/internal/netsim"
)

// idleMachineBudget bounds the live heap one idle FlexTOE machine holds
// after construction, per platform config. Readings per machine, eight
// machines per testbed, amd64, go1.24 (the first number run alone, the
// second in the whole package's run):
//
//	                                  Agilio          x86                BlueField
//	NIC caches and wheel at full size 294.4/299.1 KB  18 000/18 005 KB   18 000/18 005 KB
//	both grown with use                28.2/32.8 KB       9.8/14.4 KB        9.8/14.4 KB
//
// The eager 4 096-slot wheel alone is 96 KB, the Agilio EMEM cache's
// arrays 128 KB and the x86 one's 16 MB, so each budget fails if either
// comes back.
var idleMachineBudget = map[string]int64{"Agilio": 64 << 10, "x86": 32 << 10, "BlueField": 32 << 10}

// TestIdleMachineMemory gates what a FlexTOE machine costs before it
// carries a connection: eight machines on each platform config of Fig 14,
// the live heap per machine read after a GC, as TestEchoFleetRingMemory
// reads an echo fleet's. Model state sized by the hardware (the caches of
// §4.1, the Carousel wheel of §3.4) must cost what it holds, which here
// is nothing.
func TestIdleMachineMemory(t *testing.T) {
	const machines = 8
	for _, p := range []struct {
		name string
		cfg  core.Config
	}{
		{"Agilio", core.AgilioCX40Config()},
		{"x86", core.X86Config(false)},
		{"BlueField", core.BlueFieldConfig(false)},
	} {
		t.Run(p.name, func(t *testing.T) {
			specs := make([]MachineSpec, machines)
			for i := range specs {
				specs[i] = MachineSpec{Name: fmt.Sprint("idle", i), Kind: FlexTOE, FlexCfg: &p.cfg, Seed: uint64(i)}
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			tb := New(netsim.SwitchConfig{}, specs...)
			runtime.GC()
			runtime.ReadMemStats(&after)
			live := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / machines
			budget := idleMachineBudget[p.name]
			t.Logf("%d B of live heap per machine, budget %d", live, budget)
			if live > budget {
				t.Errorf("an idle %s machine holds %d B of live heap, budget %d: NIC model state is not sized by what it holds",
					p.name, live, budget)
			}
			runtime.KeepAlive(tb)
		})
	}
}
