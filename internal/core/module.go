package core

import (
	"bytes"

	"flextoe/internal/packet"
	"flextoe/internal/sim"
	"flextoe/internal/trace"
	"flextoe/internal/xdp"
)

// Module is a data-path extension inserted at the XDP ingress hook
// (§3.3). Modules keep private state (closure or eBPF maps), operate
// one-shot on raw segments, and forward computed metadata by mutating the
// packet; FlexTOE re-sequences segments after parallel module stages
// automatically (modules run before ticket assignment, so ordering is
// preserved by construction).
type Module = xdp.Program

// AttachXDP appends a program to the ingress chain. Programs run in
// attach order on the islands' idle FPCs; each charges its executed
// instruction count to the data-path. Attaching requires no reboot
// (§5.1: "Customizing FlexTOE is simple and does not require a system
// reboot").
func (t *TOE) AttachXDP(p xdp.Program) {
	t.xdpProgs = append(t.xdpProgs, p)
	if t.xdpSt == nil && t.mono == nil {
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

// DetachXDP removes a program by name.
func (t *TOE) DetachXDP(name string) bool {
	for i, p := range t.xdpProgs {
		if p.Name() == name {
			t.xdpProgs = append(t.xdpProgs[:i], t.xdpProgs[i+1:]...)
			return true
		}
	}
	return false
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
	t.xdpQueue(item, w)
}

// xdpQueue pushes the work through the XDP stage for cost accounting.
func (t *TOE) xdpQueue(item *segItem, w *xdpWork) {
	item.xdp = w
	t.xdpSt.push(item)
}

func (t *TOE) xdpTask(s *segItem) sim.Task {
	w := s.xdp
	// Programs touch the raw frame: charge a word per 8 bytes of packet
	// memory the hook makes addressable.
	return sim.TaskC(t.scale(w.instr + int64(len(w.data)/8)))
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
		out, err := packet.Decode(w.data)
		if err != nil {
			t.XDPDrops++
			break
		}
		// FlexTOE updates the checksum of modified segments (§3.3).
		reser := out.Serialize(packet.SerializeOptions{FixLengths: true, ComputeChecksums: true})
		final, err := packet.Decode(reser)
		if err != nil {
			t.XDPDrops++
			break
		}
		final.TCP.Checksum = 0
		t.sendFrame(final)
	case xdp.Redirect:
		t.XDPRedirects++
		t.toControl(pkt)
	default: // Pass
		if w.mutated {
			// Re-decode from a fresh copy: the work's buffer is recycled,
			// so the new packet must not alias it.
			out, err := packet.Decode(append([]byte(nil), w.data...))
			if err != nil {
				t.XDPDrops++
				packet.Release(pkt)
				break
			}
			packet.Release(pkt)
			pkt = out
		}
		t.rxToPre(pkt)
	}
	t.putXDPWork(w)
}
