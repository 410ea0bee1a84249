// Splicing: the paper's Listing 1 — AccelTCP-style connection splicing in
// 24 lines of eBPF, loaded into a FlexTOE data-path as an XDP program.
// A traffic generator streams MTU frames at a proxy; the program patches
// headers (MACs, IPs, ports, seq/ack deltas) and transmits out the MAC
// without host involvement.
package main

import (
	"fmt"
	"io"
	"os"

	"flextoe/internal/ebpf"
	"flextoe/internal/netsim"
	"flextoe/internal/packet"
	"flextoe/internal/sim"
	"flextoe/internal/testbed"
)

func main() {
	os.Exit(run(os.Stdout))
}

// run is the testable entry point; it returns the process exit code.
func run(stdout io.Writer) int {
	tb := testbed.New(netsim.SwitchConfig{},
		testbed.MachineSpec{Name: "proxy", Kind: testbed.FlexTOE, Cores: 2, Seed: 1},
		testbed.MachineSpec{Name: "gen", Kind: testbed.FlexTOE, Cores: 2, Seed: 2},
		testbed.MachineSpec{Name: "sink", Kind: testbed.FlexTOE, Cores: 2, Seed: 3},
	)
	proxy, gen, sink := tb.M("proxy"), tb.M("gen"), tb.M("sink")

	// Assemble and verify Listing 1, then attach it at the XDP hook.
	vm := ebpf.NewVM()
	tbl := ebpf.NewSpliceTable()
	prog, err := ebpf.SpliceProgram(vm, tbl)
	if err != nil {
		panic(err)
	}
	xp, err := ebpf.LoadXDP("splice", vm, prog)
	if err != nil {
		panic(err)
	}
	proxy.TOE.AttachXDP(xp)
	fmt.Fprintf(stdout, "splice program: %d instructions, verified\n", len(prog))

	// The control plane installs one splice: gen:5000->proxy:80 rewrites
	// to sink:8080 with seq/ack deltas of 0.
	key := ebpf.SpliceKey(uint32(gen.IP), uint32(proxy.IP), 5000, 80)
	val := ebpf.SpliceValue(sink.MAC, uint32(sink.IP), 6000, 8080, 0, 0)
	if err := tbl.Update(key, val); err != nil {
		panic(err)
	}

	// Count spliced frames arriving at the sink.
	received := 0
	origRecv := sink.Iface.Recv
	sink.Iface.Recv = func(f *netsim.Frame) {
		if f.Pkt.TCP.DstPort == 8080 {
			received++
		}
		origRecv(f)
	}

	// Stream MTU-sized frames from the generator, each drawn from the
	// engine's frame pool like every frame a stack sends.
	frames := netsim.FramesOf(tb.Eng)
	frame := &packet.Packet{
		Eth:     packet.Ethernet{Src: gen.MAC, Dst: proxy.MAC, EtherType: packet.EtherTypeIPv4},
		IP:      packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, Src: gen.IP, Dst: proxy.IP},
		TCP:     packet.TCP{SrcPort: 5000, DstPort: 80, Flags: packet.FlagACK | packet.FlagPSH, WScale: -1},
		Payload: make([]byte, 1448),
	}
	gap := sim.Time(float64(frame.WireLen()) / netsim.GbpsToBytesPerSec(40) * 1e12)
	const dur = 5 * sim.Millisecond
	sim.Unowned(tb.Eng, "the example's frame source bypasses every modelled stack").EveryCall(0, gap, func(any) bool {
		if tb.Eng.Now() >= dur {
			return false
		}
		gen.Iface.Send(frames.NewFrame(frame, tb.Eng.Now()))
		return true
	}, nil)
	tb.Run(dur + sim.Millisecond)

	fmt.Fprintf(stdout, "spliced at %.2f Mpps (%d frames forwarded, %d received at sink)\n",
		float64(proxy.TOE.XDPTx)/dur.Seconds()/1e6, proxy.TOE.XDPTx, received)

	// A FIN tears the splice down and redirects to the control plane.
	fin := *frame
	fin.TCP.Flags |= packet.FlagFIN
	gen.Iface.Send(frames.NewFrame(&fin, tb.Eng.Now()))
	tb.Run(tb.Eng.Now() + sim.Millisecond)
	fmt.Fprintf(stdout, "after FIN: map entries=%d, redirects to control plane=%d\n",
		tbl.Len(), proxy.TOE.XDPRedirects)

	// Let the testbed go quiet: every frame, including the generator's,
	// must be back in the engine's pool.
	tb.Run(tb.Eng.Now() + sim.Second)
	if err := tb.Eng.Unreturned(); err != nil {
		fmt.Fprintln(stdout, err)
		return 1
	}
	fmt.Fprintln(stdout, "pools: every loan returned")
	return 0
}
