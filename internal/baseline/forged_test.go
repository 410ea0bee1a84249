package baseline

import (
	"bytes"
	"testing"

	"flextoe/internal/packet"
	"flextoe/internal/tcpseg"
)

// FuzzForgedSegments runs an honest transfer a → b over a stepLink and
// hands either side, between hops, segments a hostile peer forged: any
// flags, seq and ack at offsets around the receive window's edges,
// SND.UNA, SND.NXT and SND.MAX, SACK blocks, any window, any payload.
// Invariants, after every hop and every forged segment: no panic; SND.UNA
// ≤ SND.NXT ≤ SND.MAX on both sides; a forged segment whose ack lies
// outside [SND.UNA, SND.MAX] (or that carries no ACK) moves no sender
// sequence state; no byte outside the receive window is written or
// delivered, and no unread byte is overwritten. When every forged
// segment was out of window (see inWindow), the honest stream
// and its FIN arrive intact.
func FuzzForgedSegments(f *testing.F) {
	for _, in := range forgedSeeds() {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkForged(t, data) })
}

// forgedMaxBytes bounds the honest transfer, and forgedMaxHops the run
// after the last forgery that must finish it.
const (
	forgedMaxBytes = 24 << 10
	forgedMaxHops  = 20000
)

// fuzzReader decodes a fuzz input; past its end every read is 0.
type fuzzReader []byte

func (r *fuzzReader) u8() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

func (r *fuzzReader) u16() uint16 { return uint16(r.u8())<<8 | uint16(r.u8()) }
func (r *fuzzReader) u32() uint32 { return uint32(r.u16())<<16 | uint32(r.u16()) }

// forgery is one decoded forged segment: its target, wire fields picked
// relative to the target's state when it is sent, and payload length.
type forgery struct {
	hops    int  // honest hops run before it
	toA     bool // a (the sender) receives it; else b
	close   bool // a closes its stream before it
	flags   uint8
	seqBase byte  // 0 RCV.NXT, 1 the receive window's right edge, 2 offset 0
	seqRel  int16 // added to the seq base
	ackBase byte  // 0 SND.UNA, 1 SND.NXT, 2 SND.MAX
	ackRel  int16
	window  uint16
	sacks   []packet.SACKBlock // relative to the target's SND.UNA
	payload int
}

// decodeForgery reads one forgery: 13 bytes, plus 3 per SACK block.
func decodeForgery(r *fuzzReader) forgery {
	op := r.u8()
	g := forgery{hops: int(op & 0x0f), toA: op&0x10 != 0, close: op&0x20 != 0}
	g.flags = r.u8()
	g.seqBase, g.seqRel = r.u8()%3, int16(r.u16())
	g.ackBase, g.ackRel = r.u8()%3, int16(r.u16())
	g.window = r.u16()
	n := int(r.u8() % (packet.MaxSACKBlocks + 1))
	for range n {
		start := uint32(int16(r.u16()))
		g.sacks = append(g.sacks, packet.SACKBlock{Start: start, End: start + uint32(r.u8())<<4})
	}
	g.payload = int(r.u16() % 3000)
	return g
}

// build makes the forged packet against the state of its target r.
func (g *forgery) build(r *recorder) *packet.Packet {
	t := r.t
	var seqOff uint64
	switch g.seqBase {
	case 0:
		seqOff = t.rcvd
	case 1:
		seqOff = t.rcvd + uint64(t.rxAvail)
	}
	ackOff := [3]uint64{t.una, t.nxt, t.sndMax}[g.ackBase]
	p := &packet.Packet{TCP: packet.TCP{
		Seq:    t.irs + uint32(seqOff) + uint32(int32(g.seqRel)),
		Ack:    t.sndSeq(ackOff) + uint32(int32(g.ackRel)),
		Flags:  g.flags,
		Window: g.window,
		WScale: -1,
	}}
	for _, b := range g.sacks {
		una := t.sndSeq(t.una)
		p.TCP.AddSACK(packet.SACKBlock{Start: una + b.Start, End: una + b.End})
	}
	p.Payload = bytes.Repeat([]byte{0xEE}, g.payload)
	return p
}

// ackMoves reports whether the step may take p's acknowledgment at all:
// it carries ACK and its ack lies in [SND.UNA, SND.MAX].
func ackMoves(t *tcb, p *packet.Packet) bool {
	if !p.TCP.HasFlag(packet.FlagACK) {
		return false
	}
	off, ok := t.ackOff(p.TCP.Ack)
	return ok && off >= t.una && off <= t.sndMax
}

// inWindow reports whether p, sent to r, is one RFC 9293 lets change
// the connection: an ACK with an acceptable ack, or payload or a FIN with
// a byte in [RCV.NXT, RCV.NXT+RCV.WND] (the right edge counts, so a FIN
// just past a full window does too). One more kind counts: an ACK whose
// window is below what the honest peer advertises. The step takes the
// window from every ACK, acceptable or not (no SND.WL1/WL2 guard, ROADMAP
// item 21; TestStepForgedWindowTaken pins it), and a window closed that
// way can stall a sender with nothing in flight. A larger forged window
// only lets the sender overrun the receiver, who trims and recovers.
func inWindow(r, peer *recorder, p *packet.Packet) bool {
	t := r.t
	if p.TCP.HasFlag(packet.FlagACK) && (ackMoves(t, p) || p.TCP.Window < peer.t.window()) {
		return true
	}
	fin := p.TCP.HasFlag(packet.FlagFIN)
	start, ok := t.rcvOff(p.TCP.Seq)
	if !ok || len(p.Payload) == 0 && !fin {
		return false
	}
	end := start + uint64(len(p.Payload))
	if fin {
		end++
	}
	return end > t.rcvd && start <= t.rcvd+uint64(t.rxAvail)
}

// sndState is the sender sequence state an unacceptable ack must not move.
type sndState struct {
	una, nxt, sndMax  uint64
	cwnd, ssthresh    uint32
	dupacks           int
	finSent, finAcked bool
}

func sndOf(t *tcb) sndState {
	return sndState{t.una, t.nxt, t.sndMax, t.cwnd, t.ssthresh, t.dupacks, t.finSent, t.finAcked}
}

// unread copies the bytes r's application has not read yet.
func unread(r *recorder) []byte {
	a, b := r.t.rx.Slices(uint32(r.t.readPos), uint32(r.t.rcvd-r.t.readPos))
	return append(append([]byte(nil), a...), b...)
}

func checkSeqOrder(t *testing.T, when string, rs ...*recorder) {
	t.Helper()
	for i, r := range rs {
		if !(r.t.una <= r.t.nxt && r.t.nxt <= r.t.sndMax) {
			t.Fatalf("%s: side %d SND.UNA %d, SND.NXT %d, SND.MAX %d out of order", when, i, r.t.una, r.t.nxt, r.t.sndMax)
		}
	}
}

// forge hands g's segment to its target and checks what it may change.
func forge(t *testing.T, l *stepLink, g *forgery) (inWin bool) {
	t.Helper()
	r, peer := l.b, l.a
	if g.toA {
		r, peer = l.a, l.b
	}
	p := g.build(r)
	inWin = inWindow(r, peer, p)
	before, held := sndOf(r.t), unread(r)
	winEnd := r.t.rcvd + uint64(r.t.rxAvail)
	takesAck := ackMoves(r.t, p)
	r.t.segment(r, p, l.now)
	checkSeqOrder(t, "forged segment", r)
	if after := sndOf(r.t); !takesAck && after != before {
		t.Fatalf("unacceptable ack %d (flags %#x) moved sender state %+v -> %+v", p.TCP.Ack-r.t.iss, p.TCP.Flags, before, after)
	}
	if r.t.rcvd > winEnd {
		t.Fatalf("forged segment moved RCV.NXT to %d, past the window's right edge %d", r.t.rcvd, winEnd)
	}
	for _, iv := range r.t.ivs {
		if !tcpseg.SeqLEQ(iv.End, uint32(winEnd)) {
			t.Fatalf("forged segment held [%d, %d) past the window's right edge %d", iv.Start, iv.End, uint32(winEnd))
		}
	}
	if now := unread(r); !bytes.Equal(now[:len(held)], held) {
		t.Fatalf("forged segment overwrote unread bytes at %d", firstDiff(now, held))
	}
	return inWin
}

func checkForged(t *testing.T, data []byte) {
	r := fuzzReader(data)
	prof := stepProfiles[int(r.u8())%len(stepProfiles)]
	committed := 1 + int(r.u16())%forgedMaxBytes
	a, b := newRecorder(prof, r.u32()), newRecorder(prof, r.u32())
	b.reader = true
	l := newStepLink(a, b)
	want := pattern(committed, 7)
	a.write(want)
	done := func() bool { return a.t.finAcked && b.closed }
	allOut, closed := true, false
	for len(r) > 0 {
		g := decodeForgery(&r)
		for range g.hops {
			if !l.hop() {
				break
			}
			checkSeqOrder(t, "honest hop", a, b)
		}
		if g.close && !closed {
			a.t.close(a)
			closed = true
		}
		if forge(t, l, &g) {
			allOut = false
		}
	}
	if !closed {
		a.t.close(a)
	}
	for hops := 0; !done() && hops < forgedMaxHops; hops++ {
		if !l.hop() {
			break
		}
		checkSeqOrder(t, "honest hop", a, b)
	}
	if !allOut {
		return
	}
	if !done() {
		t.Fatalf("every forgery out of window, yet the transfer did not finish: SND.UNA %d of %d, b read %d, FIN acked %v, b closed %v",
			a.t.una, committed, len(b.delivered), a.t.finAcked, b.closed)
	}
	if !bytes.Equal(b.delivered, want) {
		t.Fatalf("every forgery out of window, yet b read %d bytes, first difference at %d, want the %d sent",
			len(b.delivered), firstDiff(b.delivered, want), committed)
	}
}

// TestStepForgedWindowTaken pins a defect FuzzForgedSegments finds (ROADMAP
// item 21): the step takes the peer's window from every ACK, even one
// RFC 9293 §3.10.7.4 says to drop because its ack is beyond SND.MAX, and
// with no SND.WL1/WL2 guard. A forged ACK with window 0 that lands before
// the first flight leaves the sender with nothing in flight, no timer and
// no window: the connection stalls for good. The fix (drop the segment,
// then the WL1/WL2 rule) flips every expectation below.
func TestStepForgedWindowTaken(t *testing.T) {
	for _, prof := range stepProfiles {
		t.Run(prof.Name, func(t *testing.T) {
			a, b := newRecorder(prof, 0x1234), newRecorder(prof, 0x9876)
			l := newStepLink(a, b)
			a.write(pattern(5000, 9))
			p := &packet.Packet{TCP: packet.TCP{Seq: a.t.irs + uint32(a.t.rcvd),
				Ack: a.t.sndSeq(a.t.sndMax + 3000), Flags: packet.FlagACK, Window: 0}}
			a.t.segment(a, p, l.now)
			if a.t.remoteWin != 0 {
				t.Fatalf("peer window %d after a forged ACK beyond SND.MAX with window 0: item 21's window guard is in; update this test", a.t.remoteWin)
			}
			if l.hop() {
				t.Errorf("the sender still sends or runs a timer: SND.NXT %d, timer %v", a.t.nxt, a.timerSet)
			}
			if a.t.nxt != 0 || b.t.rcvd != 0 {
				t.Errorf("SND.NXT %d, b received %d: want the stall, nothing sent", a.t.nxt, b.t.rcvd)
			}
		})
	}
}

// forgedSeeds returns directed inputs: acks past SND.MAX and behind
// SND.UNA, payload at and past both window edges, a FIN at RCV.NXT, SACK
// blocks beyond SND.NXT, and both sequence spaces wrapping.
func forgedSeeds() [][]byte {
	// op byte, flags, seqBase, seqRel(2), ackBase, ackRel(2), window(2), nsack, [sack 3B each...], payload(2)
	seg := func(op, flags, seqBase byte, seqRel int16, ackBase byte, ackRel int16, win uint16, payload uint16, sacks ...[2]int) []byte {
		s := []byte{op, flags, seqBase, byte(uint16(seqRel) >> 8), byte(seqRel), ackBase, byte(uint16(ackRel) >> 8), byte(ackRel),
			byte(win >> 8), byte(win), byte(len(sacks))}
		for _, sk := range sacks {
			s = append(s, byte(uint16(sk[0])>>8), byte(sk[0]), byte(sk[1]))
		}
		return append(s, byte(payload>>8), byte(payload))
	}
	hdr := func(prof byte, n uint16, issA, issB uint32) []byte {
		return []byte{prof, byte(n >> 8), byte(n), byte(issA >> 24), byte(issA >> 16), byte(issA >> 8), byte(issA),
			byte(issB >> 24), byte(issB >> 16), byte(issB >> 8), byte(issB)}
	}
	const ack, fin, psh, rst, syn = packet.FlagACK, packet.FlagFIN, packet.FlagPSH, packet.FlagRST, packet.FlagSYN
	var seeds [][]byte
	for prof := byte(0); prof < 3; prof++ {
		// Acks past SND.MAX and behind SND.UNA, no ACK flag on the data.
		in := hdr(prof, 20000, 0x1234, 0x9876)
		in = append(in, seg(0x12, ack, 0, 0, 2, 1, 0x4000, 0)...)
		in = append(in, seg(0x11, ack, 0, 0, 2, mss, 0x4000, 0)...)
		in = append(in, seg(0x13, ack, 0, 0, 0, -1, 0x4000, 0)...)
		in = append(in, seg(0x02, psh, 1, 0, 0, 0, 0, 1000)...)
		in = append(in, seg(0x01, psh, 0, -2000, 0, 0, 0, 1000)...)
		seeds = append(seeds, in)
		// In-window payload, a FIN at RCV.NXT and SACK blocks past SND.NXT,
		// both spaces wrapping.
		in = hdr(prof, 12000, ^uint32(0)-1000, ^uint32(0)-3)
		in = append(in, seg(0x03, ack|psh, 0, 100, 1, 0, 0xffff, 500)...)
		in = append(in, seg(0x12, ack, 0, 0, 0, 0, 0x100, 0, [2]int{1448, 90}, [2]int{-100, 10}, [2]int{30000, 200})...)
		in = append(in, seg(0x24, fin, 0, 0, 0, 0, 0, 0)...)
		in = append(in, seg(0x15, rst|ack, 0, 0, 1, 0, 0, 0)...)
		in = append(in, seg(0x05, syn, 1, -1, 2, 0, 0, 2000)...)
		seeds = append(seeds, in)
	}
	return seeds
}
