package core

import (
	"bytes"
	"strings"
	"testing"

	"flextoe/internal/ebpf"
	"flextoe/internal/netsim"
	"flextoe/internal/packet"
	"flextoe/internal/shm"
	"flextoe/internal/sim"
	"flextoe/internal/xdp"
)

// These tests exercise XDP programs inside the data-path pipeline (the
// §3.3 module API), complementing the VM-level tests in internal/ebpf.

func TestXDPDropBlackholesTraffic(t *testing.T) {
	p := defaultPair(t, 32768)
	dropAll := &xdp.Func{Instr: 10, F: func(*xdp.Context) xdp.Verdict { return xdp.Drop }}
	p.toeB.AttachXDP(dropAll)
	p.eng.AfterCall(0, func(any) { p.a.send(testData(5000)) }, nil)
	p.eng.RunUntil(10 * sim.Millisecond)
	if len(p.b.got) != 0 {
		t.Fatalf("data delivered through a dropping program: %d bytes", len(p.b.got))
	}
	if p.toeB.XDPDrops == 0 {
		t.Fatal("no drops counted")
	}
	// Pools must not leak on the drop path.
	if err := p.eng.Unreturned(); err != nil {
		t.Fatal(err)
	}
}

func TestXDPPassIsTransparent(t *testing.T) {
	p := defaultPair(t, 32768)
	p.toeB.AttachXDP(xdp.Null())
	data := testData(20000)
	p.eng.AfterCall(0, func(any) { p.a.send(data) }, nil)
	p.eng.RunUntil(30 * sim.Millisecond)
	if !bytes.Equal(p.b.got, data) {
		t.Fatalf("transfer through null XDP incomplete: %d/%d", len(p.b.got), len(data))
	}
}

func TestXDPRedirectGoesToControlPlane(t *testing.T) {
	p := defaultPair(t, 32768)
	redirected := 0
	p.toeB.ControlRx = func(pkt *packet.Packet) { redirected++ }
	redirect := &xdp.Func{Instr: 10, F: func(*xdp.Context) xdp.Verdict { return xdp.Redirect }}
	p.toeB.AttachXDP(redirect)
	p.eng.AfterCall(0, func(any) { p.a.send(testData(100)) }, nil)
	p.eng.RunUntil(5 * sim.Millisecond)
	if redirected == 0 || p.toeB.XDPRedirects == 0 {
		t.Fatalf("redirects: cb=%d counter=%d", redirected, p.toeB.XDPRedirects)
	}
}

// TestAttachXDPRunToCompletionPanics: the run-to-completion ablation has
// no ingress stage, so a program attached to it would never run; the
// attach panics and names the ablation instead.
func TestAttachXDPRunToCompletionPanics(t *testing.T) {
	cfg := AgilioCX40Config()
	cfg.RunToCompletion = true
	p := newPair(t, cfg, cfg, netsim.SwitchConfig{}, 4096)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "run-to-completion") {
			t.Fatalf("AttachXDP on the ablation: recovered %q, want a panic naming run-to-completion", msg)
		}
	}()
	p.toeB.AttachXDP(xdp.Null())
}

func TestXDPMutationReachesProtocol(t *testing.T) {
	// A program that rewrites the TOS field: the mutated packet must be
	// re-decoded and processed (CE mark visible to the receiver's ECN
	// feedback). The transfer is long enough that the hook reuses its
	// work buffers while earlier rebuilt segments are still in flight,
	// so a rebuilt payload that aliased them would deliver wrong bytes.
	p := defaultPair(t, 32768)
	marker := &xdp.Func{Instr: 12, F: func(ctx *xdp.Context) xdp.Verdict {
		if len(ctx.Data) > 15 {
			ctx.Data[15] |= 0x03 // set CE in the TOS byte
		}
		return xdp.Pass
	}}
	p.toeB.AttachXDP(marker)
	data := testData(200000)
	p.eng.AfterCall(0, func(any) { p.a.send(data) }, nil)
	p.eng.RunUntil(30 * sim.Millisecond)
	if !bytes.Equal(p.b.got, data) {
		t.Fatalf("delivered %d of %d bytes, or wrong bytes", len(p.b.got), len(data))
	}
	// Sender must have observed ECE-marked acks (CE echoed by B).
	if p.a.conn.Post.CntECNB == 0 {
		t.Fatal("CE mark introduced by XDP never echoed back to the sender")
	}
}

func TestEBPFProgramInPipeline(t *testing.T) {
	// Run a real eBPF bytecode program in the pipeline: drop every
	// segment whose destination port is 2000 (the test flow's port).
	p := defaultPair(t, 32768)
	vm := ebpf.NewVM()
	prog, err := ebpf.NewAsm().
		LoadMem(ebpf.R3, ebpf.R1, 36, ebpf.SizeH). // TCP dst port
		JmpImm(ebpf.JEq, ebpf.R3, 2000, "drop").
		MovImm(ebpf.R0, ebpf.XDPPass).
		Exit().
		Label("drop").
		MovImm(ebpf.R0, ebpf.XDPDrop).
		Exit().Program()
	if err != nil {
		t.Fatal(err)
	}
	xp, err := ebpf.LoadXDP(vm, prog)
	if err != nil {
		t.Fatal(err)
	}
	p.toeB.AttachXDP(xp)
	p.eng.AfterCall(0, func(any) { p.a.send(testData(1000)) }, nil)
	p.eng.RunUntil(5 * sim.Millisecond)
	if len(p.b.got) != 0 {
		t.Fatal("eBPF port filter did not drop the flow")
	}
	if p.toeB.XDPDrops == 0 {
		t.Fatal("no drops counted")
	}
}

func TestXDPChainShortCircuits(t *testing.T) {
	// First program drops; second must never run.
	p := defaultPair(t, 32768)
	secondRan := false
	p.toeB.AttachXDP(&xdp.Func{Instr: 5, F: func(*xdp.Context) xdp.Verdict { return xdp.Drop }})
	p.toeB.AttachXDP(&xdp.Func{Instr: 5, F: func(*xdp.Context) xdp.Verdict {
		secondRan = true
		return xdp.Pass
	}})
	p.eng.AfterCall(0, func(any) { p.a.send(testData(100)) }, nil)
	p.eng.RunUntil(3 * sim.Millisecond)
	if secondRan {
		t.Fatal("chain did not short-circuit after Drop")
	}
}

func TestPacketTapSeesBothDirections(t *testing.T) {
	p := defaultPair(t, 32768)
	var rx, tx int
	p.toeB.PacketTapCost = 100
	p.toeB.PacketTap = func(dir string, pkt *packet.Packet) {
		switch dir {
		case "rx":
			rx++
		case "tx":
			tx++
		}
	}
	data := testData(10000)
	p.eng.AfterCall(0, func(any) { p.a.send(data) }, nil)
	p.eng.RunUntil(20 * sim.Millisecond)
	if !bytes.Equal(p.b.got, data) {
		t.Fatal("transfer incomplete")
	}
	if rx == 0 || tx == 0 {
		t.Fatalf("tap: rx=%d tx=%d", rx, tx)
	}
}

func TestFirewallModuleInPipeline(t *testing.T) {
	// The §2.1 firewall feature end-to-end: block the peer, traffic
	// stops; unblock, traffic resumes.
	p := defaultPair(t, 32768)
	fw := xdp.NewFirewall()
	fw.Block(uint32(packet.IP(10, 0, 0, 1))) // A's address
	p.toeB.AttachXDP(fw)
	p.eng.AfterCall(0, func(any) { p.a.send(testData(1000)) }, nil)
	p.eng.RunUntil(5 * sim.Millisecond)
	if len(p.b.got) != 0 {
		t.Fatal("blocked source delivered data")
	}
	fw.Unblock(uint32(packet.IP(10, 0, 0, 1)))
	// Trigger recovery via a control-plane style retransmit.
	p.eng.AfterCall(0, func(any) {
		p.toeA.InjectHC(shm.Desc{Kind: shm.DescRetransmit, Conn: p.a.conn.ID})
	}, nil)
	p.eng.RunUntil(30 * sim.Millisecond)
	if len(p.b.got) != 1000 {
		t.Fatalf("traffic did not resume after unblock: %d/1000", len(p.b.got))
	}
}

func TestVLANStripInPipeline(t *testing.T) {
	// Inject a VLAN-tagged frame directly at B's NIC; the strip module
	// removes the tag and the segment reaches the connection.
	p := defaultPair(t, 32768)
	p.toeB.AttachXDP(xdp.VLANStrip())
	pkt := &packet.Packet{
		Eth:  packet.Ethernet{Src: packet.MAC(2, 0, 0, 0, 0, 1), Dst: packet.MAC(2, 0, 0, 0, 0, 2)},
		VLAN: &packet.VLAN{ID: 100, EtherType: packet.EtherTypeIPv4},
		IP: packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, TOS: packet.ECNECT0,
			Src: packet.IP(10, 0, 0, 1), Dst: packet.IP(10, 0, 0, 2)},
		TCP: packet.TCP{SrcPort: 1000, DstPort: 2000, Seq: 0, Ack: 0,
			Flags: packet.FlagACK | packet.FlagPSH, Window: 512, WScale: -1},
		Payload: []byte("tagged payload"),
	}
	p.eng.AfterCall(sim.Microsecond, func(any) {
		p.toeB.rxFromWire(netsim.FramesOf(p.eng).NewFrame(pkt, p.eng.Now()))
	}, nil)
	p.eng.RunUntil(5 * sim.Millisecond)
	if string(p.b.got) != "tagged payload" {
		t.Fatalf("got %q", p.b.got)
	}
}
