package baseline

import (
	"flextoe/internal/packet"
	"flextoe/internal/shm"
	"flextoe/internal/sim"
	"flextoe/internal/tcpseg"
)

// effects is what a connection's step asks of its carrier, in the order
// the step decides it. A *bconn turns each call into packets, engine
// events and host-core charges; a test records them. The step itself
// reaches no engine, core, interface or pool.
type effects interface {
	emit(off, n uint64, flags uint8) // send [off, off+n) of the send stream
	ack(ece bool)                    // send a pure acknowledgment
	pump()                           // start the transmit pump unless it runs
	arm(at sim.Time)                 // fire the timer step at at (now if past)
	readable(n uint32)               // n more in-order bytes for the application
	writable()                       // acknowledged bytes freed send buffer
	peerClosed()                     // the peer's FIN arrived in order
	reclaim()                        // the linger is over: free the connection
}

// tcb is one connection's protocol state. Its methods are the step,
// (state, input, now) → effects: a segment whose cost is paid, an
// application commit, consume or close, a transmit slot, a timer firing.
type tcb struct {
	env *stackEnv // the personality followed and the counters counted

	// Sender (absolute stream offsets; seq = iss + uint32(offset)).
	iss      uint32
	una      uint64 // oldest unacked
	nxt      uint64 // next to send
	sndMax   uint64 // SND.MAX: one past the highest offset ever emitted, the FIN's slot included
	appended uint64 // bytes the app has written
	// tx is the socket send buffer (bufSize); [una, appended) is live.
	tx       *shm.PayloadBuf
	finAt    uint64 // stream offset of FIN; ^0 = none
	finSent  bool
	finAcked bool

	cwnd         uint32
	ssthresh     uint32
	dupacks      int
	remoteWin    uint32
	lastProgress sim.Time
	backoff      int
	rtoArmed     bool     // one timer event in flight (its carrier is the bconn)
	lingerAt     sim.Time // fully-closed reclaim deadline; 0 = not yet scheduled

	// Receiver.
	irs     uint32
	rcvd    uint64 // in-order received (rcv.nxt offset)
	readPos uint64 // app read position
	// rx is the socket receive buffer (bufSize), live from readPos.
	rx      *shm.PayloadBuf
	rxAvail uint32
	// Out-of-order intervals (policy-capped, shared with the FlexTOE
	// protocol stage) as truncated 32-bit stream offsets: every interval
	// lies within the (< 2^31) receive window of rcvd.
	ivs     []tcpseg.SeqInterval
	peerFin bool
	// SACK advertisement (appendSACK): lastOOO is the truncated offset
	// of the latest out-of-order segment accepted, whose interval leads;
	// sackRot is the cursor that rotates the older holes.
	lastOOO uint32
	sackRot int

	// SACK scoreboard (RecoverySACK): peer-held ranges in sender sequence
	// space, in the interval sets the FlexTOE protocol stage uses too.
	sack []tcpseg.SeqInterval

	// needWinUpdate: a consume reopened a closed receive window; its
	// charged completion must re-advertise it.
	needWinUpdate bool

	// Handshake.
	synDone bool
	sackOK  bool // SACK-permitted negotiated on SYN/SYN-ACK
}

// newTCB is the state of a connection opened at now with send sequence
// iss and bufSize-byte socket buffers.
func newTCB(env *stackEnv, iss, bufSize uint32, now sim.Time) tcb {
	return tcb{env: env, iss: iss, tx: shm.NewPayloadBuf(bufSize), rx: shm.NewPayloadBuf(bufSize),
		rxAvail: bufSize, cwnd: 10 * mss, ssthresh: 1 << 30, remoteWin: bufSize, finAt: ^uint64(0), lastProgress: now}
}

func (t *tcb) sndSeq(off uint64) uint32 { return t.iss + uint32(off) }

// rcvOff unwraps a 32-bit sequence number to a stream offset near the
// current receive point. ok is false for a sequence from before the
// stream began — a stale segment far behind a young connection, whose
// offset would be negative; callers treat it as the old duplicate it is
// instead of leaning on a later window check to reject the wrapped value.
func (t *tcb) rcvOff(seq uint32) (off uint64, ok bool) {
	return unwrapOff(t.rcvd, seq-(t.irs+uint32(t.rcvd)))
}

// ackOff is rcvOff for the send side: an acknowledgment number unwrapped
// near the oldest unacknowledged byte.
func (t *tcb) ackOff(ack uint32) (off uint64, ok bool) {
	return unwrapOff(t.una, ack-(t.iss+uint32(t.una)))
}

// unwrapOff returns base plus the signed 32-bit distance rel, or ok =
// false when that lies before offset zero.
func unwrapOff(base uint64, rel uint32) (uint64, bool) {
	off := int64(base) + int64(int32(rel))
	return uint64(off), off >= 0
}

// synRcvd is the step for the peer's SYN (passive open) or SYN-ACK
// (active open): the receive sequence space, SACK permission and the
// peer's first window.
func (t *tcb) synRcvd(tcp *packet.TCP) {
	t.irs = tcp.Seq + 1
	t.synDone = true
	t.sackOK = tcp.SACKPerm && t.env.prof.Recovery == RecoverySACK
	if tcp.Window > 0 {
		t.remoteWin = uint32(tcp.Window) << tcpseg.WindowScale
	}
}

// segment is the step for a received segment whose processing cost has
// been paid: its acknowledgment, payload and FIN, then the transmit pump
// and the timer.
func (t *tcb) segment(fx effects, pkt *packet.Packet, now sim.Time) {
	tcp := &pkt.TCP
	if tcp.HasFlag(packet.FlagACK) {
		t.ingestSACK(tcp)
		ackOff, ackOK := t.ackOff(tcp.Ack)
		switch {
		case !ackOK || ackOff > t.sndMax:
			// Acknowledges nothing this stream ever sent (below offset
			// zero, or beyond SND.MAX, which sendSlot keeps within the
			// committed bytes and the FIN's slot): ignored, like any
			// other ACK below una.
		case ackOff > t.una:
			acked := ackOff - t.una
			if t.finAt != ^uint64(0) && ackOff == t.finAt+1 { // FIN occupies one sequence slot
				t.finAcked = true
				acked--
			}
			t.una += acked
			t.tx.Release(uint32(acked))
			// A go-back-N rewind raced with an ACK for data the peer had
			// already buffered: SND.NXT = max(SND.NXT, SND.UNA).
			t.nxt = max(t.nxt, t.una)
			t.trimSACK()
			t.dupacks = 0
			t.lastProgress = now
			t.backoff = 0
			// New Reno growth.
			if t.cwnd < t.ssthresh {
				t.cwnd += uint32(acked) // slow start
			} else if t.cwnd > 0 {
				t.cwnd += uint32(mss * acked / uint64(t.cwnd))
			}
			if tcp.HasFlag(packet.FlagECE) {
				t.halveCwnd()
			}
			if acked > 0 {
				fx.writable()
			}
		case ackOff == t.una && len(pkt.Payload) == 0 && t.nxt > t.una:
			t.env.DupAcks++
			t.dupacks++
			if t.dupacks == 3 {
				t.halveCwnd()
				switch t.env.prof.Recovery {
				case RecoverySACK:
					// Selective repeat from the scoreboard; without any
					// reported blocks, retransmit the missing head
					// segment.
					if !t.sackRetransmit(fx) {
						t.send(fx, t.una, t.retxLen(), false)
					}
				case RecoveryGBN:
					t.nxt = t.una // go-back-N
				case RecoveryDiscard:
					// Timeout-only recovery: dup acks ignored.
				}
			}
		}
		t.remoteWin = uint32(tcp.Window) << tcpseg.WindowScale
	}
	if len(pkt.Payload) > 0 {
		t.receivePayload(fx, pkt)
	}
	if tcp.HasFlag(packet.FlagFIN) {
		off, ok := t.rcvOff(tcp.Seq)
		if ok && off+uint64(len(pkt.Payload)) == t.rcvd && !t.peerFin {
			t.peerFin = true
			fx.ack(false)
			fx.peerClosed()
		}
	}
	fx.pump()
	t.armTimer(fx, now)
}

// receivePayload implements the three reassembly policies.
func (t *tcb) receivePayload(fx effects, pkt *packet.Packet) {
	ece := pkt.IP.ECN() == packet.ECNCE
	start, ok := t.rcvOff(pkt.TCP.Seq)
	if !ok {
		// From before the stream began: a stale duplicate, acknowledged
		// like one that ends at or below rcvd.
		fx.ack(ece)
		return
	}
	end := start + uint64(len(pkt.Payload))
	winEnd := t.rcvd + uint64(t.rxAvail)

	// Trim to window and already-received prefix.
	data := pkt.Payload
	if start < t.rcvd {
		if end <= t.rcvd {
			fx.ack(ece)
			return
		}
		data = data[t.rcvd-start:]
		start = t.rcvd
	}
	if end > winEnd {
		if start >= winEnd {
			fx.ack(ece)
			return
		}
		data = data[:winEnd-start]
		end = winEnd
	}

	maxIvs := t.env.prof.oooIvs()
	if len(data) == len(pkt.Payload) {
		pkt.CheckPayloadView()
	}

	if start == t.rcvd {
		// In order: write, merge intervals, deliver.
		t.rx.WriteAt(uint32(start), data)
		before := t.rcvd
		ivs, ack32, _ := tcpseg.MergeAdvance(t.ivs, uint32(end))
		t.ivs = ivs
		t.rcvd = before + uint64(ack32-uint32(before))
		newBytes := uint32(t.rcvd - before)
		t.rxAvail -= newBytes
		fx.readable(newBytes)
	} else if maxIvs > 0 {
		// Out of order: insert into the interval set (capacity-limited).
		var ir tcpseg.IvResult
		t.ivs, ir = tcpseg.InsertSeqInterval(t.ivs,
			tcpseg.SeqInterval{Start: uint32(start), End: uint32(end)}, maxIvs)
		if ir.Accepted {
			t.env.OOOAccepted++
			t.rx.WriteAt(uint32(start), data)
			t.lastOOO = uint32(start)
		} else {
			t.env.OOODropped++
		}
	} else {
		// RecoveryDiscard: out-of-order data silently dropped.
		t.env.OOODropped++
	}
	fx.ack(ece)
}

// ingestSACK merges incoming SACK blocks into the sender scoreboard
// (RecoverySACK only), clamped to [SND.UNA, SND.NXT).
func (t *tcb) ingestSACK(tcp *packet.TCP) {
	if t.env.prof.Recovery != RecoverySACK || tcp.NumSACK == 0 {
		return
	}
	una32, nxt32 := t.sndSeq(t.una), t.sndSeq(t.nxt)
	for i := uint8(0); i < tcp.NumSACK; i++ {
		b := tcp.SACKBlocks[i]
		if tcpseg.SeqLT(b.Start, una32) {
			b.Start = una32
		}
		if tcpseg.SeqGT(b.End, nxt32) {
			b.End = nxt32
		}
		if tcpseg.SeqGEQ(b.Start, b.End) {
			continue
		}
		t.sack, _ = tcpseg.InsertSeqInterval(t.sack,
			tcpseg.SeqInterval{Start: b.Start, End: b.End}, t.env.prof.oooIvs())
	}
}

// trimSACK discards scoreboard coverage below the cumulative ack.
func (t *tcb) trimSACK() {
	if len(t.sack) == 0 {
		return
	}
	una32 := t.sndSeq(t.una)
	ivs := t.sack
	for len(ivs) > 0 && tcpseg.SeqLEQ(ivs[0].End, una32) {
		ivs = ivs[1:]
	}
	if len(ivs) > 0 && tcpseg.SeqLT(ivs[0].Start, una32) {
		ivs[0].Start = una32
	}
	t.sack = ivs
}

// sackRetransmit re-sends only the holes below the highest SACKed
// sequence, in MSS chunks, bounded by one (post-halving) congestion
// window per recovery event — RFC 6675's pipe limit, and the analogue of
// the FlexTOE path draining its retransmit queue under the flow
// scheduler rather than bursting. Returns false when the scoreboard is
// empty.
func (t *tcb) sackRetransmit(fx effects) bool {
	if len(t.sack) == 0 {
		return false
	}
	budget := max(uint64(t.cwnd), 2*mss)
	una32 := t.sndSeq(t.una)
	high := tcpseg.SeqMin(t.sack[len(t.sack)-1].End, t.sndSeq(t.nxt))
	prev := una32
	sent := false
	for i := 0; i <= len(t.sack) && tcpseg.SeqLT(prev, high) && budget > 0; i++ {
		edge := high
		if i < len(t.sack) {
			edge = tcpseg.SeqMin(t.sack[i].Start, high)
		}
		for tcpseg.SeqLT(prev, edge) && budget > 0 {
			n := min(uint64(uint32(tcpseg.SeqDiff(edge, prev))), mss, budget)
			off := t.una + uint64(uint32(tcpseg.SeqDiff(prev, una32)))
			t.send(fx, off, n, false)
			prev += uint32(n)
			budget -= n
			sent = true
		}
		if i < len(t.sack) && tcpseg.SeqGT(t.sack[i].End, prev) {
			prev = t.sack[i].End
		}
	}
	return sent
}

func (t *tcb) halveCwnd() {
	t.ssthresh = max(t.cwnd/2, 2*mss)
	t.cwnd = t.ssthresh
}

// appendSACK fills a pure ACK's SACK blocks from the reassembly interval
// set, following RFC 2018's ordering rules: the first block is the
// interval containing the most recently received segment, and the
// remaining wire slots rotate through the older holes on consecutive
// ACKs (cursor advanced per advertisement) — so a peer whose scoreboard
// holds fewer intervals than this receiver tracks (the FlexTOE sender's
// 4 against Linux's 32, Fig. 15e) still learns every hole within a few
// ACKs instead of only ever seeing the lowest-sequence ones. Intervals
// hold truncated stream offsets; wire sequence = IRS + offset.
func (t *tcb) appendSACK(tcp *packet.TCP) {
	if len(t.ivs) == 0 {
		return
	}
	// First block: the interval holding the most recent arrival.
	first := 0
	for i, iv := range t.ivs {
		if !tcpseg.SeqLT(t.lastOOO, iv.Start) && tcpseg.SeqLT(t.lastOOO, iv.End) {
			first = i
			break
		}
	}
	tcp.AddSACK(packet.SACKBlock{Start: t.irs + t.ivs[first].Start, End: t.irs + t.ivs[first].End})
	// Remaining slots: rotate the other holes, the cursor advancing per
	// advertisement so every hole reaches the wire within
	// ceil(k / (MaxSACKBlocks-1)) consecutive ACKs.
	if k := len(t.ivs) - 1; k > 0 {
		emit := min(packet.MaxSACKBlocks-1, k)
		for j := 0; j < emit; j++ {
			// first+1 .. first+k (mod len) are exactly the other
			// intervals; distinct r < k keeps the blocks distinct.
			iv := t.ivs[(first+1+(t.sackRot+j)%k)%len(t.ivs)]
			tcp.AddSACK(packet.SACKBlock{Start: t.irs + iv.Start, End: t.irs + iv.End})
		}
		t.sackRot += emit
	}
}

// ackField returns the cumulative acknowledgment (FIN occupies a slot).
func (t *tcb) ackField() uint32 {
	ack := t.irs + uint32(t.rcvd)
	if t.peerFin {
		ack++
	}
	return ack
}

// window is the advertised receive window, scaled and clamped to 16 bits.
func (t *tcb) window() uint16 { return uint16(min(t.rxAvail>>tcpseg.WindowScale, 0xffff)) }

// commit is the step for the application appending n staged bytes.
func (t *tcb) commit(n uint64) {
	t.appended += n
	if shm.Debug {
		t.tx.Release(0) // ends the Reserve views (flexdebug)
	}
}

// consume is the step for the application releasing n read bytes: the
// receive window reopens, and one reopened from zero is advertised when
// the consume's cost has been paid (consumed).
func (t *tcb) consume(n uint32) {
	t.readPos += uint64(n)
	t.rx.Release(n)
	if t.window() == 0 {
		t.needWinUpdate = true
	}
	t.rxAvail += n
}

func (t *tcb) consumed(fx effects) {
	if t.needWinUpdate {
		t.needWinUpdate = false
		fx.ack(false) // window update
	}
}

// close is the step for the application's close: FIN after the bytes
// appended so far.
func (t *tcb) close(fx effects) {
	t.finAt = t.appended
	fx.pump()
}

// nextSeg sizes the segment the next transmit slot carries: at most one
// MSS of unsent bytes inside the congestion and peer windows, or a bare
// FIN. ok is false when there is nothing to send.
func (t *tcb) nextSeg() (n uint64, ok bool) {
	inflight := t.nxt - t.una
	limit := uint64(min(t.cwnd, t.remoteWin))
	avail := t.appended - t.nxt
	wantFin := t.finAt != ^uint64(0) && !t.finSent && t.nxt == t.appended
	if (avail == 0 || inflight >= limit) && !wantFin {
		return 0, false
	}
	n = min(mss, avail)
	if inflight < limit && n > limit-inflight {
		n = limit - inflight
	}
	return n, n > 0 || wantFin
}

// sendSlot is the step for a paid transmit slot: the n bytes nextSeg
// sized from SND.NXT, with FIN if they end a closed stream. An ACK taken
// while the slot's cost was paid can have moved SND.NXT up to SND.UNA (a
// go-back-N rewind raced with it), so the slot is re-clamped to the bytes
// the application committed, and a slot left with nothing sends nothing.
func (t *tcb) sendSlot(fx effects, n uint64, now sim.Time) {
	off := t.nxt
	n = min(n, t.appended-off)
	fin := t.finAt != ^uint64(0) && off+n == t.appended
	if n == 0 && !fin {
		return
	}
	t.send(fx, off, n, fin)
	t.nxt += n
	t.armTimer(fx, now)
}

// send emits [off, off+n) of the send stream, with FIN if fin.
func (t *tcb) send(fx effects, off, n uint64, fin bool) {
	flags := packet.FlagACK
	if n > 0 {
		flags |= packet.FlagPSH
	}
	if fin {
		flags |= packet.FlagFIN
		t.finSent = true
	}
	t.env.TxSegs++
	// Sent high-water mark: any payload byte below it has been on the
	// wire before — the m-lab SendNext retransmit criterion, and the
	// definition flowmon's sender-side inference must reproduce. The
	// FIN's slot ends the stream, so no payload byte lies at or past it.
	if off < t.sndMax && n > 0 {
		t.env.RetxSegs++
		t.env.RetxBytes += min(t.sndMax-off, n)
	}
	end := off + n
	if fin {
		end++
	}
	t.sndMax = max(t.sndMax, end)
	fx.emit(off, n, flags)
}

// retxLen bounds a head retransmission to one MSS of sent data.
func (t *tcb) retxLen() uint64 { return min(mss, t.nxt-t.una) }

// timerOutstanding reports whether the retransmission timer has work:
// unacked bytes in flight, or a sent-but-unacked FIN.
func (t *tcb) timerOutstanding() bool {
	return t.nxt > t.una || (t.finAt != ^uint64(0) && t.finSent && !t.finAcked)
}

// rto returns the current backed-off retransmission timeout.
func (t *tcb) rto() sim.Time { return t.env.prof.MinRTO << uint(t.backoff) }

// deadline is when the connection's timer must next fire: one RTO after
// the last progress while bytes or a FIN are outstanding, or the end of
// a fully closed connection's linger. ok is false when no timer is due.
func (t *tcb) deadline(now sim.Time) (at sim.Time, ok bool) {
	switch {
	case t.timerOutstanding():
		t.lingerAt = 0
		return t.lastProgress + t.rto(), true
	case t.finAcked && t.peerFin:
		if t.lingerAt == 0 {
			t.lingerAt = now + 4*t.env.prof.MinRTO
		}
		return t.lingerAt, true
	}
	return 0, false
}

// armTimer arms the connection's timer if it needs service and has none
// in flight; rtoArmed dedupes, so an armed connection costs nothing here.
func (t *tcb) armTimer(fx effects, now sim.Time) {
	if t.rtoArmed {
		return
	}
	if at, ok := t.deadline(now); ok {
		t.rtoArmed = true
		fx.arm(at)
	}
}

// timer is the step for the timer firing: retransmit on RTO expiry and
// re-arm while work remains; reclaim a fully closed connection after its
// linger; otherwise disarm (lazy cancellation — state changes never chase
// a timer in flight).
func (t *tcb) timer(fx effects, now sim.Time) {
	at, ok := t.deadline(now)
	switch {
	case !ok:
		t.rtoArmed = false
		return
	case now < at:
	case !t.timerOutstanding():
		t.rtoArmed = false
		fx.reclaim()
		return
	default:
		t.env.Retransmits++
		t.lastProgress = now
		t.backoff = min(t.backoff+1, 6)
		t.halveCwnd()
		t.cwnd = 2 * mss
		if t.env.prof.Recovery == RecoverySACK {
			// RFC 2018 reneging rule: a timeout must not trust the
			// scoreboard; restart from the head.
			t.sack = t.sack[:0]
			t.send(fx, t.una, t.retxLen(), false)
		} else {
			t.nxt = t.una
			t.finSent = false
			fx.pump()
		}
		at = now + t.rto()
	}
	fx.arm(at)
}
