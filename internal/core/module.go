package core

import (
	"bytes"

	"flextoe/internal/packet"
	"flextoe/internal/sim"
	"flextoe/internal/trace"
	"flextoe/internal/xdp"
)

// AttachXDP appends a program to the ingress chain, the data-path
// extension hook of §3.3. Programs keep private state (closure or eBPF
// maps), operate one-shot on raw segments, and forward computed metadata
// by mutating the packet; they run before ticket assignment, so the
// pipeline's ordering is preserved by construction. Programs run in
// attach order on the islands' idle FPCs; each charges its executed
// instruction count to the data-path. Attaching requires no reboot
// (§5.1: "Customizing FlexTOE is simple and does not require a system
// reboot"). The run-to-completion ablation has no ingress hook: attaching
// to it panics rather than leave the program unrun.
func (t *TOE) AttachXDP(p xdp.Program) {
	if t.mono != nil {
		panic("core: AttachXDP on a run-to-completion TOE: the Table 3 ablation has no XDP stage")
	}
	t.xdpProgs = append(t.xdpProgs, p)
	if t.xdpSt == nil {
		// The paper leaves 3 unassigned FPCs per protocol island for
		// additional data-path modules (§4); the ingress hook itself
		// uses a pair of them.
		n := (t.cfg.FlowGroups + 1) / 2
		if n < 1 {
			n = 1
		}
		t.xdpSt = t.newStage("xdp", n, trace.TPQPre, t.xdpTask, t.xdpDone)
	}
}

// xdpWork carries the raw segment bytes and the verdict through the XDP
// stage. Works are pooled per TOE and own two reusable serialization
// buffers (the raw view handed to programs and the pristine copy used to
// detect mutation), so the hook's per-frame marshalling allocates nothing
// in steady state.
type xdpWork struct {
	verdict  xdp.Verdict
	buf      []byte // owned backing the packet serializes into
	pristine []byte // owned copy for mutation detection
	data     []byte // program view (may be re-sliced or replaced)
	ctx      xdp.Context
	mutated  bool
	instr    int64
}

func (t *TOE) getXDPWork() *xdpWork {
	if w := t.xdpFree.Get(); w != nil {
		return w
	}
	return &xdpWork{}
}

func (t *TOE) putXDPWork(w *xdpWork) {
	w.data = nil
	w.ctx = xdp.Context{}
	t.xdpFree.Put(w)
}

func (t *TOE) xdpIngress(pkt *packet.Packet) {
	// Serialize the frame into the work's reusable buffer: XDP programs
	// see raw bytes, exactly as on the NFP. The program chain runs
	// functionally first to learn its instruction count, then the stage
	// charges that cost before the verdict takes effect.
	w := t.getXDPWork()
	w.verdict = xdp.Pass
	n := pkt.WireLen()
	if cap(w.buf) < n {
		w.buf = make([]byte, n)
	}
	w.buf = w.buf[:n]
	pkt.SerializeTo(w.buf, packet.SerializeOptions{FixLengths: true, ComputeChecksums: true})
	if cap(w.pristine) < n {
		w.pristine = make([]byte, n)
	}
	w.pristine = w.pristine[:n]
	copy(w.pristine, w.buf)
	w.ctx = xdp.Context{Data: w.buf}
	var total int64 = t.costs.XDPHook
	for _, p := range t.xdpProgs {
		v, instr := p.Run(&w.ctx)
		total += instr + t.costs.XDPHook
		if v != xdp.Pass {
			w.verdict = v
			break
		}
	}
	w.mutated = !bytes.Equal(w.pristine, w.ctx.Data)
	w.data = w.ctx.Data
	w.instr = total
	item := t.allocSeg()
	item.kind = segRX
	item.pkt = pkt
	item.xdp = w
	t.xdpSt.push(item) // the stage charges the chain's cost
}

func (t *TOE) xdpTask(s *segItem) sim.Step {
	w := s.xdp
	// Programs touch the raw frame: charge a word per 8 bytes of packet
	// memory the hook makes addressable.
	return sim.Step{Compute: t.scale(w.instr + int64(len(w.data)/8))}
}

func (t *TOE) xdpDone(s *segItem) {
	w := s.xdp
	pkt := s.pkt
	s.xdp = nil
	s.pkt = nil
	t.putSeg(s) // the pre-accounting item's journey ends at the hook
	switch w.verdict {
	case xdp.Drop:
		t.XDPDrops++
		packet.Release(pkt)
	case xdp.TX:
		t.XDPTx++
		packet.Release(pkt) // the rewritten bytes replace the original
		out := t.xdpRebuild(w.data)
		if out == nil {
			t.XDPDrops++
			break
		}
		// FlexTOE updates the checksum of modified segments (§3.3): every
		// serializer on the way out fixes lengths and computes checksums.
		t.sendFrame(out)
	case xdp.Redirect:
		t.XDPRedirects++
		t.toControl(pkt)
	default: // Pass
		if w.mutated {
			packet.Release(pkt)
			if pkt = t.xdpRebuild(w.data); pkt == nil {
				t.XDPDrops++
				break
			}
		}
		t.rxToPre(pkt)
	}
	t.putXDPWork(w)
}

// xdpRebuild turns a program's rewritten frame into a packet from the
// engine's pool: its headers decoded from data, its payload copied into
// the packet's own slab buffer, because data is the work's recycled
// buffer. It returns nil if the bytes no longer decode.
func (t *TOE) xdpRebuild(data []byte) *packet.Packet {
	out := t.pkts.Get()
	if err := out.DecodeInto(data); err != nil {
		packet.Release(out)
		return nil
	}
	src := out.Payload
	copy(out.GrowPayload(len(src)), src)
	return out
}
