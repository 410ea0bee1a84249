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

// splicer is the example's testbed: a proxy running Listing 1 at its XDP
// hook with one splice installed, a traffic generator and a sink that
// counts the spliced frames it receives.
type splicer struct {
	tb               *testbed.Testbed
	proxy, gen, sink *testbed.Machine
	tbl              *ebpf.HashMap
	prog             []ebpf.Insn
	frame            *packet.Packet // the generator's MTU frame
	received         int
}

func newSplicer() *splicer {
	tb := testbed.New(netsim.SwitchConfig{},
		testbed.MachineSpec{Name: "proxy", Kind: testbed.FlexTOE, Cores: 2, Seed: 1},
		testbed.MachineSpec{Name: "gen", Kind: testbed.FlexTOE, Cores: 2, Seed: 2},
		testbed.MachineSpec{Name: "sink", Kind: testbed.FlexTOE, Cores: 2, Seed: 3},
	)
	s := &splicer{tb: tb, proxy: tb.M("proxy"), gen: tb.M("gen"), sink: tb.M("sink")}

	// Assemble and verify Listing 1, then attach it at the XDP hook.
	vm := ebpf.NewVM()
	s.tbl = ebpf.NewSpliceTable()
	prog, err := ebpf.SpliceProgram(vm, s.tbl)
	if err != nil {
		panic(err)
	}
	xp, err := ebpf.LoadXDP(vm, prog)
	if err != nil {
		panic(err)
	}
	s.prog = prog
	s.proxy.TOE.AttachXDP(xp)

	// The control plane installs one splice: gen:5000->proxy:80 rewrites
	// to sink:8080 with seq/ack deltas of 0.
	key := ebpf.SpliceKey(uint32(s.gen.IP), uint32(s.proxy.IP), 5000, 80)
	val := ebpf.SpliceValue(s.sink.MAC, uint32(s.sink.IP), 6000, 8080, 0, 0)
	if err := s.tbl.Update(key, val); err != nil {
		panic(err)
	}

	// Count spliced frames arriving at the sink.
	origRecv := s.sink.Iface.Recv
	s.sink.Iface.Recv = func(f *netsim.Frame) {
		if f.Pkt.TCP.DstPort == 8080 {
			s.received++
		}
		origRecv(f)
	}
	s.frame = &packet.Packet{
		Eth:     packet.Ethernet{Src: s.gen.MAC, Dst: s.proxy.MAC, EtherType: packet.EtherTypeIPv4},
		IP:      packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, Src: s.gen.IP, Dst: s.proxy.IP},
		TCP:     packet.TCP{SrcPort: 5000, DstPort: 80, Flags: packet.FlagACK | packet.FlagPSH, WScale: -1},
		Payload: make([]byte, 1448),
	}
	return s
}

// stream sends the generator's MTU frame at 40 Gbps line rate until the
// clock reaches end, each send in a frame drawn from the engine's pool
// like every frame a stack sends.
func (s *splicer) stream(end sim.Time) {
	frames := netsim.FramesOf(s.tb.Eng)
	gap := sim.Time(float64(s.frame.WireLen()) / netsim.GbpsToBytesPerSec(40) * 1e12)
	sim.Unowned(s.tb.Eng, "the example's frame source bypasses every modelled stack").EveryCall(0, gap, func(any) bool {
		if s.tb.Eng.Now() >= end {
			return false
		}
		s.gen.Iface.Send(frames.NewFrame(s.frame, s.tb.Eng.Now()))
		return true
	}, nil)
}

// run is the testable entry point; it returns the process exit code.
func run(stdout io.Writer) int {
	s := newSplicer()
	tb, proxy := s.tb, s.proxy
	fmt.Fprintf(stdout, "splice program: %d instructions, verified\n", len(s.prog))

	const dur = 5 * sim.Millisecond
	s.stream(dur)
	tb.Run(dur + sim.Millisecond)

	fmt.Fprintf(stdout, "spliced at %.2f Mpps (%d frames forwarded, %d received at sink)\n",
		float64(proxy.TOE.XDPTx)/dur.Seconds()/1e6, proxy.TOE.XDPTx, s.received)

	// A FIN tears the splice down and redirects to the control plane.
	fin := *s.frame
	fin.TCP.Flags |= packet.FlagFIN
	s.gen.Iface.Send(netsim.FramesOf(tb.Eng).NewFrame(&fin, tb.Eng.Now()))
	tb.Run(tb.Eng.Now() + sim.Millisecond)
	fmt.Fprintf(stdout, "after FIN: map entries=%d, redirects to control plane=%d\n",
		s.tbl.Len(), proxy.TOE.XDPRedirects)

	// Let the testbed go quiet: every frame and packet, including the
	// generator's frames and the proxy's rewritten packets, must be back
	// in the engine's pools.
	tb.Run(tb.Eng.Now() + sim.Second)
	if err := tb.Eng.Unreturned(); err != nil {
		fmt.Fprintln(stdout, err)
		return 1
	}
	fmt.Fprintln(stdout, "pools: every loan returned")
	return 0
}
