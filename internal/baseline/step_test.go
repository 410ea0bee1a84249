package baseline

import (
	"bytes"
	"fmt"
	"testing"

	"flextoe/internal/packet"
	"flextoe/internal/sim"
)

// The tests in this file drive the protocol step (step.go) with no
// engine, core, interface or pool: a recorder is the carrier, and a
// stepLink joins two of them into a connection whose wire is a slice.

// recorder is a step's carrier in tests. It builds every emitted segment
// and ACK as a packet the peer's step can take, and records the rest.
type recorder struct {
	t         *tcb
	out       []*packet.Packet // segments and ACKs emitted, oldest first
	armed     []sim.Time       // every deadline armed, in order
	pumping   bool             // a pump was asked for and has not drained
	unread    uint32           // bytes readable and not yet read
	reader    bool             // read and consume every readable byte
	delivered []byte           // what the reader read
	closed    bool             // peerClosed was seen
	reclaimed bool
	timerAt   sim.Time // the timer in flight, when timerSet
	timerSet  bool
}

func newRecorder(prof Profile, iss uint32) *recorder {
	t := newTCB(&stackEnv{prof: prof}, iss, 65536, 0)
	return &recorder{t: &t}
}

func (r *recorder) seg(seq uint32, flags uint8) *packet.Packet {
	p := &packet.Packet{TCP: packet.TCP{Seq: seq, Ack: r.t.ackField(), Flags: flags, Window: r.t.window(), WScale: -1}}
	r.out = append(r.out, p)
	return p
}

func (r *recorder) emit(off, n uint64, flags uint8) {
	p := r.seg(r.t.sndSeq(off), flags)
	p.Payload = make([]byte, n)
	r.t.tx.ReadAt(uint32(off), p.Payload)
}

func (r *recorder) ack(ece bool) {
	flags := packet.FlagACK
	if ece {
		flags |= packet.FlagECE
	}
	p := r.seg(r.t.sndSeq(r.t.nxt), flags)
	if r.t.sackOK {
		r.t.appendSACK(&p.TCP)
	}
}

func (r *recorder) pump()                           { r.pumping = true }
func (r *recorder) readable(n uint32)               { r.unread += n }
func (r *recorder) writable()                       {}
func (r *recorder) peerClosed()                     { r.closed = true }
func (r *recorder) reclaim()                        { r.reclaimed = true }
func (r *recorder) arm(at sim.Time)                 { r.armed, r.timerAt, r.timerSet = append(r.armed, at), at, true }
func (r *recorder) takeOut() (out []*packet.Packet) { out, r.out = r.out, nil; return out }

// settle runs what the carrier would run after a step: the transmit pump
// until nextSeg has nothing, and the reader.
func (r *recorder) settle(now sim.Time) {
	for r.pumping {
		n, ok := r.t.nextSeg()
		if !ok {
			r.pumping = false
			break
		}
		r.t.sendSlot(r, n, now)
	}
	if r.reader && r.unread > 0 {
		a, b := r.t.rx.Slices(uint32(r.t.readPos), r.unread)
		r.delivered = append(append(r.delivered, a...), b...)
		r.t.consume(r.unread)
		r.unread = 0
		r.t.consumed(r)
	}
}

// write appends p to r's send stream and asks for the pump.
func (r *recorder) write(p []byte) {
	a, b := r.t.tx.Slices(uint32(r.t.appended), uint32(len(p)))
	copy(b, p[copy(a, p):])
	r.t.commit(uint64(len(p)))
	r.pumping = true
}

// stepLink joins two recorders: every emitted packet crosses to the other
// side one hop later, unless drop says otherwise.
type stepLink struct {
	a, b *recorder
	now  sim.Time
	sent map[*recorder][]*packet.Packet // every packet each side emitted
	drop func(from *recorder, p *packet.Packet) bool
}

// newStepLink completes the handshake's state on both sides: a's SYN reaches b
// and b's SYN-ACK reaches a.
func newStepLink(a, b *recorder) *stepLink {
	b.t.synRcvd(&packet.TCP{Seq: a.t.iss - 1, SACKPerm: a.t.env.prof.Recovery == RecoverySACK})
	a.t.synRcvd(&packet.TCP{Seq: b.t.iss - 1, SACKPerm: b.t.sackOK, Window: b.t.window()})
	return &stepLink{a: a, b: b, sent: map[*recorder][]*packet.Packet{}}
}

// run moves packets and fires timers until done holds.
func (l *stepLink) run(tb testing.TB, done func() bool) {
	tb.Helper()
	for round := 0; !done(); round++ {
		if round > 100000 {
			tb.Fatalf("no progress after %d hops: a una %d/%d, b rcvd %d", round, l.a.t.una, l.a.t.appended, l.b.t.rcvd)
		}
		if !l.hop() {
			tb.Fatalf("quiet wire, no timer, not done")
		}
	}
}

// hop settles both sides and moves what they emitted across the wire, or,
// on a quiet wire, fires the earliest timer. It returns false when there
// is neither a packet nor a timer.
func (l *stepLink) hop() bool {
	const wire = 10 * sim.Microsecond
	l.a.settle(l.now)
	l.b.settle(l.now)
	fromA, fromB := l.a.takeOut(), l.b.takeOut()
	if len(fromA)+len(fromB) == 0 {
		// Quiet wire: the earliest timer fires.
		r := l.a
		if !r.timerSet || l.b.timerSet && l.b.timerAt < r.timerAt {
			r = l.b
		}
		if !r.timerSet {
			return false
		}
		l.now = max(l.now, r.timerAt)
		r.timerSet = false
		r.t.timer(r, l.now)
		return true
	}
	l.now += wire
	l.deliver(l.a, l.b, fromA)
	l.deliver(l.b, l.a, fromB)
	return true
}

func (l *stepLink) deliver(from, to *recorder, pkts []*packet.Packet) {
	for _, p := range pkts {
		l.sent[from] = append(l.sent[from], p)
		if l.drop == nil || !l.drop(from, p) {
			to.t.segment(to, p, l.now)
		}
	}
}

var stepProfiles = []Profile{LinuxProfile(), TASProfile(), ChelsioProfile()}

func pattern(n, salt int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + salt)
	}
	return p
}

// TestStepSequenceWrap forces both sequence spaces across 2^32 a few
// bytes into the stream (k from the top) and streams both ways. a loses,
// once each, the segment carrying the first byte past the wrap and the
// one holding the byte two MSS later. On every recovery policy both
// streams must arrive whole, both FINs be acknowledged, and every Seq and
// Ack on the wire cross the wrap, and both connections linger and are
// reclaimed; with SACK the two holes must be repaired by one fast
// retransmit, no timeout.
func TestStepSequenceWrap(t *testing.T) {
	for _, prof := range stepProfiles {
		for _, k := range []uint32{1, 2, 1448, 3000} {
			t.Run(fmt.Sprintf("%s/k=%d", prof.Name, k), func(t *testing.T) {
				a, b := newRecorder(prof, -k), newRecorder(prof, -k)
				a.reader, b.reader = true, true
				l := newStepLink(a, b)
				lose := map[uint32]bool{k: true, k + 2*mss: true} // stream offsets
				l.drop = func(from *recorder, p *packet.Packet) bool {
					off := p.TCP.Seq - a.t.iss
					for x := range lose {
						if from == a && off <= x && x-off < uint32(len(p.Payload)) {
							delete(lose, x)
							return true
						}
					}
					return false
				}
				toB, toA := pattern(40000, 1), pattern(20000, 2)
				a.write(toB)
				b.write(toA)
				a.t.close(a)
				b.t.close(b)
				l.run(t, func() bool {
					return a.t.finAcked && b.t.finAcked && a.closed && b.closed && a.unread == 0 && b.unread == 0
				})

				for _, d := range []struct {
					name      string
					got, want []byte
				}{{"a to b", b.delivered, toB}, {"b to a", a.delivered, toA}} {
					if !bytes.Equal(d.got, d.want) {
						t.Errorf("%s: delivered %d bytes, want the %d sent (first difference at %d)",
							d.name, len(d.got), len(d.want), firstDiff(d.got, d.want))
					}
				}
				// Both sides linger fully closed, then reclaim.
				l.run(t, func() bool { return a.reclaimed && b.reclaimed })
				if len(lose) != 0 {
					t.Errorf("offsets %v were never sent", lose)
				}
				if e := a.t.env; prof.Recovery == RecoverySACK && (e.RetxSegs != 2 || e.Retransmits != 0) {
					t.Errorf("SACK recovery: %d segments re-sent, %d timeouts; want 2 and 0", e.RetxSegs, e.Retransmits)
				}
				for _, r := range []*recorder{a, b} {
					if !wrapped(l.sent[r], func(p *packet.Packet) uint32 { return p.TCP.Seq }) ||
						!wrapped(l.sent[r], func(p *packet.Packet) uint32 { return p.TCP.Ack }) {
						t.Errorf("the Seq or Ack %s emitted never crossed 2^32", map[*recorder]string{a: "a", b: "b"}[r])
					}
				}
			})
		}
	}
}

// wrapped reports whether field, over pkts in order, goes from the top
// half of the sequence space to the bottom one.
func wrapped(pkts []*packet.Packet, field func(*packet.Packet) uint32) bool {
	top := false
	for _, p := range pkts {
		v := field(p)
		top = top || v >= 1<<31
		if top && v < 1<<31 {
			return true
		}
	}
	return false
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// carried is a connection that has carried staleSent bytes a to b, none
// of them read by b's application.
func carried(t *testing.T, prof Profile) (l *stepLink, a, b *recorder) {
	a, b = newRecorder(prof, 0x1234), newRecorder(prof, 0x9876)
	l = newStepLink(a, b)
	a.write(pattern(staleSent, 1))
	l.run(t, func() bool { return a.t.una == staleSent })
	if b.t.rcvd != staleSent || b.unread != staleSent {
		t.Fatalf("b received %d, readable %d, want %d", b.t.rcvd, b.unread, staleSent)
	}
	return l, a, b
}

// TestStepStaleSegmentAndAck is TestStaleSegmentAndAckBehindYoungConnection
// at the step: segments and acknowledgments from before a young stream
// began (its offset unwraps negative) change no state and are answered
// with one duplicate ACK, on every recovery policy.
func TestStepStaleSegmentAndAck(t *testing.T) {
	for _, prof := range stepProfiles {
		t.Run(prof.Name, func(t *testing.T) {
			l, a, b := carried(t, prof)
			want := pattern(staleSent, 1)
			junk := bytes.Repeat([]byte{0xEE}, 1000)
			for _, seg := range []struct {
				name   string
				behind uint32
				n      int
			}{
				{"wholly before the stream", staleSent + 2000, 1000},
				{"ending exactly at offset zero", staleSent + 1000, 1000},
				{"straddling offset zero", staleSent + 5, 10},
				{"nearly 2^31 behind", 1<<31 - 1, 1000},
			} {
				before := *b.t
				env := *b.t.env
				p := &packet.Packet{TCP: packet.TCP{Seq: b.t.irs + uint32(b.t.rcvd) - seg.behind,
					Ack: b.t.sndSeq(b.t.nxt), Flags: packet.FlagACK, Window: a.t.window()}, Payload: junk[:seg.n]}
				b.t.segment(b, p, l.now)
				if b.t.rcvd != before.rcvd || b.t.rxAvail != before.rxAvail || len(b.t.ivs) != 0 || *b.t.env != env {
					t.Errorf("%s: rcvd %d->%d rxAvail %d->%d ivs %v counters %+v->%+v, want no change",
						seg.name, before.rcvd, b.t.rcvd, before.rxAvail, b.t.rxAvail, b.t.ivs, env, *b.t.env)
				}
				x, y := b.t.rx.Slices(uint32(b.t.readPos), staleSent)
				if got := append(append([]byte(nil), x...), y...); !bytes.Equal(got, want) {
					t.Errorf("%s: delivered, unread bytes were overwritten", seg.name)
				}
				if out := b.takeOut(); len(out) != 1 || len(out[0].Payload) != 0 || out[0].TCP.Ack != b.t.ackField() {
					t.Errorf("%s: answered with %d segments, want one duplicate ACK", seg.name, len(out))
				}
				if b.unread != staleSent {
					t.Errorf("%s: %d bytes readable, want %d", seg.name, b.unread, staleSent)
				}
			}

			// Stale ACKs: acknowledgment numbers from before iss.
			for _, behind := range []uint32{staleSent + 1, staleSent + 1000, 1<<31 - 1} {
				before, env := *a.t, *a.t.env
				p := &packet.Packet{TCP: packet.TCP{Seq: a.t.irs + uint32(a.t.rcvd),
					Ack: a.t.iss + uint32(a.t.una) - behind, Flags: packet.FlagACK, Window: b.t.window()}}
				a.t.segment(a, p, l.now)
				if a.t.una != before.una || a.t.nxt != before.nxt || a.t.cwnd != before.cwnd ||
					a.t.dupacks != before.dupacks || *a.t.env != env || a.t.finAcked {
					t.Errorf("ack %d behind una: una %d->%d nxt %d->%d cwnd %d->%d dupacks %d->%d counters %+v->%+v finAcked %v, want no change",
						behind, before.una, a.t.una, before.nxt, a.t.nxt, before.cwnd, a.t.cwnd,
						before.dupacks, a.t.dupacks, env, *a.t.env, a.t.finAcked)
				}
				if out := a.takeOut(); len(out) != 0 {
					t.Errorf("ack %d behind una: answered with %d segments, want none", behind, len(out))
				}
			}
		})
	}
}

// TestStepSendAfterIdle pins today's behaviour of a send after an idle
// period longer than the RTO (ROADMAP item 6(e)): the RTO clock runs
// from the last acknowledged progress, so the first send after idle arms
// a deadline already past, and the timer re-sends the head in the same
// instant with cwnd collapsed. Arming from the send (RFC 6298 5.1) is
// the fix; it flips the first expectation.
func TestStepSendAfterIdle(t *testing.T) {
	for _, prof := range stepProfiles {
		t.Run(prof.Name, func(t *testing.T) {
			l, a, _ := carried(t, prof)
			// The timer armed for the carried bytes fires, finds nothing
			// outstanding and disarms.
			l.now = max(l.now, a.timerAt)
			a.timerSet = false
			a.t.timer(a, l.now)
			if a.t.rtoArmed || a.t.timerOutstanding() {
				t.Fatalf("after the transfer: armed %v outstanding %v, want an idle connection", a.t.rtoArmed, a.t.timerOutstanding())
			}

			now := l.now + 10*a.t.rto()
			arms, retx := len(a.armed), a.t.env.Retransmits
			a.write(pattern(1000, 2))
			a.settle(now)
			sent := a.takeOut()
			if len(sent) != 1 || len(sent[0].Payload) != 1000 || len(a.armed) != arms+1 {
				t.Fatalf("send after idle: %d segments, %d arms, want one 1000-byte segment and one arm", len(sent), len(a.armed)-arms)
			}
			if at := a.armed[arms]; at > now {
				t.Errorf("deadline %v after the send at %v: item 6(e) is fixed; update this test", at, now)
			}

			// The timer fires at once: the head goes out again at the same
			// instant, and cwnd collapses.
			a.timerSet = false
			a.t.timer(a, now)
			a.settle(now)
			again := a.takeOut()
			if a.t.env.Retransmits != retx+1 || len(again) != 1 || again[0].TCP.Seq != sent[0].TCP.Seq || a.t.cwnd != 2*mss {
				t.Errorf("timer at the send's instant: RTOs +%d, %d segments, cwnd %d; want one RTO re-sending the head, cwnd %d",
					a.t.env.Retransmits-retx, len(again), a.t.cwnd, 2*mss)
			}
		})
	}
}

// TestStepAckBeyondSndMax: an acknowledgment for bytes the sender has
// committed but never sent changes no sender state, on every recovery
// policy. The bound is SND.MAX, one past the highest offset emitted (the
// FIN's slot once a FIN went out). With only the committed bytes as the
// bound, the forged ACKs below moved SND.UNA and SND.NXT past bytes that
// were then never transmitted, and the receiver waited for them forever. After the forgeries the honest stream and its
// FIN still arrive intact, and the FIN's own acknowledgment is taken.
func TestStepAckBeyondSndMax(t *testing.T) {
	const committed = 20000
	for _, prof := range stepProfiles {
		t.Run(prof.Name, func(t *testing.T) {
			a, b := newRecorder(prof, 0x1234), newRecorder(prof, 0x9876)
			b.reader = true
			l := newStepLink(a, b)
			want := pattern(committed, 3)
			a.write(want)
			a.settle(l.now)
			sent := a.t.nxt // SND.MAX: nothing was sent twice yet
			if sent == 0 || sent >= committed {
				t.Fatalf("first flight sent %d of %d bytes, want some but not all", sent, committed)
			}
			for _, off := range []uint64{sent + 1, sent + mss, (sent + committed) / 2, committed, committed + 1} {
				before, env := *a.t, *a.t.env
				p := &packet.Packet{TCP: packet.TCP{Seq: a.t.irs + uint32(a.t.rcvd),
					Ack: a.t.sndSeq(off), Flags: packet.FlagACK, Window: b.t.window()}}
				a.t.segment(a, p, l.now)
				if a.t.una != before.una || a.t.nxt != before.nxt || a.t.cwnd != before.cwnd ||
					a.t.dupacks != before.dupacks || *a.t.env != env || a.t.finAcked {
					t.Errorf("ack for offset %d, SND.MAX %d: una %d->%d nxt %d->%d cwnd %d->%d dupacks %d->%d counters %+v->%+v finAcked %v, want no change",
						off, sent, before.una, a.t.una, before.nxt, a.t.nxt, before.cwnd, a.t.cwnd,
						before.dupacks, a.t.dupacks, env, *a.t.env, a.t.finAcked)
				}
			}
			a.t.close(a)
			l.run(t, func() bool { return a.t.finAcked && b.closed })
			if !bytes.Equal(b.delivered, want) {
				t.Fatalf("b read %d bytes, first difference at %d, want the %d committed", len(b.delivered), firstDiff(b.delivered, want), committed)
			}
			if a.t.una != committed {
				t.Fatalf("after the FIN's ack: SND.UNA %d, want %d", a.t.una, committed)
			}
		})
	}
}

// TestStepSlotClampedToCommitted: a transmit slot sized before a
// go-back-N rewind raced with an ACK sends only bytes the application
// committed. The slot is sized at the rewound SND.NXT; the ACK for the
// whole flight, which the peer had buffered, arrives while the slot's
// cost is paid and moves SND.NXT to the committed end. Sent at that
// SND.NXT unclamped, the slot carried ring bytes the application never
// wrote, the peer delivered and acknowledged them, and SND.NXT ran past
// the committed bytes (seen on TAS in Fig 15a at 2 % loss). Only the
// profiles whose timeout rewinds SND.NXT can race this way.
func TestStepSlotClampedToCommitted(t *testing.T) {
	const committed = 6144
	const hop = 10 * sim.Microsecond
	for _, prof := range stepProfiles {
		if prof.Recovery == RecoverySACK {
			continue // the timeout re-sends the head and leaves SND.NXT
		}
		t.Run(prof.Name, func(t *testing.T) {
			a, b := newRecorder(prof, 0x1234), newRecorder(prof, 0x9876)
			b.reader = true
			l := newStepLink(a, b)
			want := pattern(committed, 5)
			a.write(want)
			a.settle(l.now)
			if a.t.nxt != committed {
				t.Fatalf("first flight sent %d of %d bytes, want all", a.t.nxt, committed)
			}
			// b takes the whole flight; its ACK waits on the wire.
			l.now += hop
			l.deliver(a, b, a.takeOut())
			b.settle(l.now)
			acks := b.takeOut()
			// a's timeout fires first: go-back-N rewinds SND.NXT, and the
			// pump sizes a slot there.
			l.now = a.timerAt
			a.timerSet = false
			a.t.timer(a, l.now)
			n, ok := a.t.nextSeg()
			if !ok || a.t.nxt != 0 {
				t.Fatalf("after the timeout: slot %d (%v) at SND.NXT %d, want one at 0", n, ok, a.t.nxt)
			}
			// The ACK lands while the slot's cost is paid.
			l.deliver(b, a, acks)
			if a.t.una != committed || a.t.nxt != committed {
				t.Fatalf("after the ACK: SND.UNA %d, SND.NXT %d, want both %d", a.t.una, a.t.nxt, committed)
			}
			a.t.sendSlot(a, n, l.now)
			for _, p := range a.takeOut() {
				if len(p.Payload) > 0 {
					t.Errorf("the paid slot sent %d B at seq %d with %d B committed", len(p.Payload), p.TCP.Seq-a.t.iss, committed)
				}
			}
			if a.t.nxt != committed || a.t.sndMax != committed {
				t.Fatalf("SND.NXT %d, SND.MAX %d, want both at the %d committed", a.t.nxt, a.t.sndMax, committed)
			}
			a.t.close(a)
			l.run(t, func() bool { return a.t.finAcked && b.closed })
			if !bytes.Equal(b.delivered, want) {
				t.Fatalf("b read %d bytes, first difference at %d, want the %d committed", len(b.delivered), firstDiff(b.delivered, want), committed)
			}
		})
	}
}
