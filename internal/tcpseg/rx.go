package tcpseg

import "flextoe/internal/packet"

// RXResult describes the side effects of processing one received segment.
// The protocol stage computes it; the post-processing, DMA and context-
// queue stages carry it out.
type RXResult struct {
	// Drop: the segment carries nothing useful (stale duplicate outside
	// every window). An ACK may still be requested to resynchronize the
	// sender.
	Drop bool

	// Payload placement (one-shot DMA directly into the host RX buffer).
	WriteLen   uint32 // bytes of payload to place (after trimming)
	WriteOff   uint32 // offset into the segment payload of the first byte
	WritePos   uint32 // RX buffer offset for the first byte
	NewInOrder uint32 // bytes newly in-order (notify application)

	// Sender-side bookkeeping from the ACK field.
	AckedBytes uint32 // TX-buffer bytes newly acknowledged (free them)
	FinAcked   bool   // our FIN is now acknowledged

	// Acknowledgment generation.
	SendAck bool
	AckSeq  uint32 // sequence number for the ACK segment
	AckAck  uint32 // acknowledgment number for the ACK segment
	AckWin  uint16 // scaled window to advertise
	EchoTS  uint32 // timestamp echo for the ACK
	AckECE  bool   // set ECE: segment arrived CE-marked

	// Loss handling.
	DupAck         bool // this was a duplicate ACK
	FastRetransmit bool // third duplicate ACK: recovery triggered
	// SACKRetransmit: the fast retransmit repaired only the scoreboard
	// holes via the selective-retransmit queue, instead of a go-back-N
	// reset.
	SACKRetransmit bool
	// SACKReneged: this segment's SACK blocks overflowed the bounded
	// scoreboard, newly marking it untrustworthy — recovery falls back to
	// go-back-N until the episode drains (RFC 2018 conservatism).
	SACKReneged bool
	WasOOO      bool // payload accepted out of order
	OOODrop     bool // payload outside every tracked interval: dropped

	// SACK generation (receiver side): the out-of-order interval set to
	// advertise with the ACK, most recently touched interval first
	// (RFC 2018), so wire-level truncation drops the oldest news.
	AckSACK    [MaxOOOIntervals]SeqInterval
	AckSACKCnt uint8

	// Reassembly accounting (interval-set extension).
	OOOMerged uint8 // intervals coalesced by this segment
	OOOIvs    uint8 // interval-set occupancy after processing
	// OOODropAvoided: accepted, but a single-interval tracker would
	// have dropped it. The counterfactual N=1 tracker is approximated
	// as holding the head (lowest) interval; a real first-arrival
	// tracker can differ once several intervals coexist, so treat the
	// derived counter as an estimate, not an exact replay.
	OOODropAvoided bool

	// Lifecycle.
	FinRx bool // peer FIN consumed (in order)
}

// ProcessRX performs the protocol stage's receive work ("Win" in Fig. 6):
// advance the window, locate the payload in the host receive buffer
// (trimming to fit), merge or reject out-of-order data against the
// tracked interval set (capacity 1 by default, the paper's TAS-style
// design; up to MaxOOOIntervals), account acknowledged bytes, detect
// duplicate ACKs and trigger fast retransmission, and decide the ACK to
// send.
//
// tsNow is the local timestamp clock (microseconds) used for RTT
// estimation via the echoed timestamp option.
func ProcessRX(st *ProtoState, post *PostState, seg *SegInfo, tsNow uint32) RXResult {
	var res RXResult

	// --- Sender-side: process the segment's ACK field. -----------------
	una := st.UnackedBase()
	ackNo := seg.Ack
	if seg.Flags&packet.FlagACK != 0 {
		preRenege := st.Flags&flagSACKRenege != 0
		ingestSACK(st, seg)
		res.SACKReneged = !preRenege && st.Flags&flagSACKRenege != 0
		switch {
		case SeqGT(ackNo, st.Seq):
			// The ack is beyond SND.NXT. This is legitimate in two ways.
			// After a go-back-N reset rewound Seq, copies transmitted
			// before the reset are still in flight: the peer may
			// acknowledge anything up to SND.MAX (the reset returned
			// those bytes to TxAvail, so they sit unchanged in the TX
			// buffer). Ignoring such an ack — as a literal "acks data we
			// never sent" check does — wedges the connection: the sender
			// retransmits data the peer already has, and the peer's
			// cumulative ack stays above Seq forever. Accept the ack and
			// skip retransmitting the covered bytes. The other way is
			// our FIN's sequence slot, one past SND.MAX. Anything beyond
			// SND.MAX was never on the wire — bogus, ignored (RFC 9293).
			horizon := st.TxMax
			finSlot := st.Flags&flagFinEverTx != 0 &&
				st.Flags&flagFinAcked == 0
			dataAck := ackNo
			finAcked := false
			if finSlot && ackNo == horizon+1 {
				dataAck = horizon
				finAcked = true
			}
			if SeqLEQ(dataAck, horizon) {
				skip := uint32(SeqDiff(dataAck, st.Seq))
				acked := st.TxSent + skip
				st.Seq = dataAck
				st.TxPos = wrap(st.TxPos+skip, post.TxSize)
				st.TxAvail -= skip
				st.TxSent = 0
				st.DupAcks = 0
				trimSACKScore(st, dataAck)
				trimRetxQueue(st, dataAck)
				res.AckedBytes = acked
				post.CntACKB += acked
				if seg.ECNCE || seg.Flags&packet.FlagECE != 0 {
					post.CntECNB += acked
				}
				if finAcked {
					st.Flags &^= flagFinPending
					st.Flags |= flagFinSent | flagFinAcked
					res.FinAcked = true
				}
			}
		case SeqGT(ackNo, una):
			acked := uint32(SeqDiff(ackNo, una))
			if acked > st.TxSent {
				acked = st.TxSent
			}
			st.TxSent -= acked
			trimSACKScore(st, st.UnackedBase())
			trimRetxQueue(st, st.UnackedBase())
			// Partial ack during SACK recovery (RFC 6675): the gap at the
			// new UNA is still missing at the peer — keep repairing
			// without waiting for three fresh duplicate ACKs.
			if st.Flags&flagSACKRecovery != 0 && st.Flags&flagSACKRenege == 0 {
				fillSACKRetx(st)
			}
			res.AckedBytes = acked
			post.CntACKB += acked
			if seg.ECNCE || seg.Flags&packet.FlagECE != 0 {
				post.CntECNB += acked
			}
			st.DupAcks = 0
		default: // ackNo == una (or older)
			// Duplicate ACK detection: same ack number, no payload, no
			// window change, and we actually have data outstanding.
			if ackNo == una && seg.PayloadLen == 0 && st.TxSent > 0 &&
				uint32(seg.Window) == uint32(st.RemoteWin) && seg.Flags&packet.FlagFIN == 0 {
				res.DupAck = true
				if st.DupAcks < 15 {
					st.DupAcks++
				}
				if st.DupAcks == 3 {
					// Selective retransmission (RFC 2018/6675) when the
					// scoreboard holds trustworthy blocks; go-back-N reset
					// otherwise (SACK not negotiated, no blocks reported,
					// or the bounded scoreboard overflowed and understates
					// what the peer holds). A fresh three-dupack burst
					// restarts the episode from SND.UNA: the hole there is
					// missing again even if it was repaired before (the
					// repair itself was lost), and waiting for the RTO
					// would cost a full go-back-N resend.
					st.Flags &^= flagSACKRecovery
					st.HighRetx = 0
					st.RetxCnt = 0
					if st.Flags&flagSACKRenege == 0 && fillSACKRetx(st) {
						res.SACKRetransmit = true
					} else {
						gobackN(st, post)
					}
					res.FastRetransmit = true
					post.CntFRetx++
				} else if st.DupAcks > 3 && st.Flags&flagSACKRecovery != 0 &&
					st.Flags&flagSACKRenege == 0 {
					// Continued recovery: later duplicate ACKs reveal more
					// blocks; repair newly exposed holes above HighRetx
					// immediately (RFC 6675), never re-queueing repairs
					// already in flight.
					if fillSACKRetx(st) {
						res.SACKRetransmit = true
					}
				}
			}
		}
		st.RemoteWin = seg.Window
	}

	// RTT estimation from the echoed timestamp.
	if seg.HasTS && seg.TSEcr != 0 {
		if rtt := tsNow - seg.TSEcr; int32(rtt) >= 0 {
			if post.RTTEst == 0 {
				post.RTTEst = rtt
			} else {
				// EWMA with alpha = 1/8, division-free. The difference is
				// signed: shorter samples must pull the estimate down.
				diff := int32(rtt-post.RTTEst) >> 3
				post.RTTEst = uint32(int32(post.RTTEst) + diff)
			}
		}
	}
	if seg.HasTS {
		st.NextTS = seg.TSVal
	}
	if seg.ECNCE {
		st.Flags |= flagECNSeen
	}

	// --- Receiver-side: place the payload. ------------------------------
	payloadEnd := seg.Seq + seg.PayloadLen
	hasPayload := seg.PayloadLen > 0
	if hasPayload {
		windowEnd := st.Ack + st.RxAvail
		start, end := seg.Seq, payloadEnd
		// Trim data before RCV.NXT (retransmitted overlap).
		if SeqLT(start, st.Ack) {
			start = st.Ack
		}
		// Trim data beyond the receive window (§3.1.3: trim to fit).
		if SeqGT(end, windowEnd) {
			end = windowEnd
		}
		if SeqGEQ(start, end) {
			// Nothing accepted: stale duplicate or fully out of window.
			res.Drop = true
			res.SendAck = true // resynchronize the sender
		} else {
			switch {
			case start == st.Ack:
				// In order (possibly after trimming an overlapping head).
				n := uint32(SeqDiff(end, start))
				res.WriteOff = uint32(SeqDiff(start, seg.Seq))
				res.WriteLen = n
				res.WritePos = st.RxPos
				st.Ack += n
				advance := n
				// Merge every interval the advanced ack now reaches.
				ivs, newAck, merged := MergeAdvance(st.OOOIntervals(), st.Ack)
				if merged > 0 {
					advance += uint32(SeqDiff(newAck, st.Ack))
					st.Ack = newAck
					st.setOOO(ivs)
					res.OOOMerged = uint8(merged)
				}
				st.RxPos = wrap(st.RxPos+advance, post.RxSize)
				st.RxAvail -= advance
				res.NewInOrder = advance
				consumeOOOFin(st, &res)
			default:
				// Out of order: insert into the interval set (§3.1.3;
				// capacity 1 reproduces the TAS-style single interval).
				n := uint32(SeqDiff(end, start))
				hadIvs := st.OOOCnt > 0
				ivs, ir := InsertSeqInterval(st.OOOIntervals(), SeqInterval{start, end}, st.oooCap())
				st.setOOO(ivs)
				if ir.Accepted {
					res.WasOOO = true
					res.OOOMerged = uint8(ir.Merged)
					// A single-interval tracker accepts only data touching
					// its one interval (approximated here as the head;
					// see the RXResult field comment).
					res.OOODropAvoided = hadIvs && !ir.AtHead
					res.WriteOff = uint32(SeqDiff(start, seg.Seq))
					res.WriteLen = n
					res.WritePos = wrap(st.RxPos+uint32(SeqDiff(start, st.Ack)), post.RxSize)
				} else {
					// Disjoint and the set is full: drop, ACK with the
					// expected sequence number to trigger retransmission.
					res.OOODrop = true
					res.Drop = true
				}
			}
			res.OOOIvs = st.OOOCnt
			res.SendAck = true
		}
	}

	// FIN processing: consumed only when all preceding data is in order.
	// A FIN beyond a hole is remembered alongside the interval set
	// (FinOOOSeq) and consumed when the in-order advance reaches it, so
	// the peer never has to retransmit a FIN whose data all arrived.
	if seg.Flags&packet.FlagFIN != 0 && st.Flags&flagFinRx == 0 {
		finSeq := payloadEnd // FIN occupies the octet after the payload
		if st.Ack == finSeq && st.OOOCnt == 0 {
			st.Flags &^= flagFinOOO
			st.Flags |= flagFinRx
			st.Ack++
			res.FinRx = true
			res.SendAck = true
		} else if SeqLT(st.Ack, finSeq) {
			// Remember only window-plausible slots: a forged FIN far
			// beyond the window must not park a bogus marker.
			if SeqLEQ(finSeq, st.Ack+st.RxAvail) {
				st.Flags |= flagFinOOO
				st.FinOOOSeq = finSeq
			}
			res.SendAck = true // can't consume yet; ack what we have
		}
	}

	if res.SendAck {
		res.AckSeq = st.Seq
		if st.Flags&flagFinSent != 0 {
			res.AckSeq = st.Seq + 1
		}
		res.AckAck = st.Ack
		res.AckWin = st.LocalWindow()
		res.EchoTS = st.NextTS
		res.AckECE = seg.ECNCE
		st.Flags &^= flagECNSeen
		emitSACK(st, &res, seg.Seq, res.WasOOO)
	}
	return res
}

// consumeOOOFin consumes a remembered out-of-order FIN once the in-order
// stream reaches its sequence slot.
func consumeOOOFin(st *ProtoState, res *RXResult) {
	if st.Flags&flagFinOOO == 0 || st.Flags&flagFinRx != 0 {
		return
	}
	if st.OOOCnt == 0 && st.Ack == st.FinOOOSeq {
		st.Flags &^= flagFinOOO
		st.Flags |= flagFinRx
		st.Ack++
		res.FinRx = true
		res.SendAck = true
	} else if SeqGT(st.Ack, st.FinOOOSeq) {
		// The stream advanced past the remembered slot: the marker was
		// bogus (data beyond a real FIN cannot exist). Drop it.
		st.Flags &^= flagFinOOO
	}
}

// emitSACK copies the out-of-order interval set into the ACK's SACK
// blocks when the connection negotiated SACK-permitted. The interval
// containing the most recently accepted segment leads (RFC 2018), so the
// encoder's option-space truncation keeps the freshest information.
func emitSACK(st *ProtoState, res *RXResult, recent uint32, hasRecent bool) {
	res.AckSACKCnt = copySACK(st, &res.AckSACK, recent, hasRecent)
}

// copySACK writes the interval set into dst, leading with the interval
// containing recent (if any), and returns the block count. Shared by the
// pure-ACK path and the TX data-segment piggyback.
func copySACK(st *ProtoState, dst *[MaxOOOIntervals]SeqInterval, recent uint32, hasRecent bool) uint8 {
	if !st.SACKEnabled() || st.OOOCnt == 0 {
		return 0
	}
	n := int(st.OOOCnt)
	first := 0
	if hasRecent {
		for i := 0; i < n; i++ {
			if SeqLEQ(st.OOO[i].Start, recent) && SeqLEQ(recent, st.OOO[i].End) {
				first = i
				break
			}
		}
	}
	k := 0
	dst[k] = st.OOO[first]
	k++
	for i := 0; i < n && k < len(dst); i++ {
		if i == first {
			continue
		}
		dst[k] = st.OOO[i]
		k++
	}
	return uint8(k)
}

// ingestSACK merges a segment's SACK blocks into the sender-side
// scoreboard. Blocks are clamped to the transmitted range; a block the
// bounded scoreboard cannot hold marks it untrustworthy (flagSACKRenege)
// until it drains, forcing go-back-N recovery (RFC 2018 conservatism).
func ingestSACK(st *ProtoState, seg *SegInfo) {
	if !st.SACKEnabled() || seg.SACKCnt == 0 {
		return
	}
	una := st.UnackedBase()
	for i := 0; i < int(seg.SACKCnt); i++ {
		b := seg.SACK[i]
		if SeqLT(b.Start, una) {
			b.Start = una
		}
		if SeqGT(b.End, st.TxMax) {
			b.End = st.TxMax // never trust blocks beyond SND.MAX
		}
		if SeqGEQ(b.Start, b.End) {
			continue
		}
		ivs, ir := InsertSeqInterval(st.SACKIntervals(), b, MaxOOOIntervals)
		st.setSACK(ivs)
		if !ir.Accepted {
			st.Flags |= flagSACKRenege
		}
	}
}

// trimSACKScore discards scoreboard coverage at or below the advanced
// cumulative ack. An empty scoreboard is trustworthy again.
func trimSACKScore(st *ProtoState, una uint32) {
	ivs := st.SACKIntervals()
	for len(ivs) > 0 && SeqLEQ(ivs[0].End, una) {
		ivs = ivs[1:]
	}
	if len(ivs) > 0 && SeqLT(ivs[0].Start, una) {
		ivs[0].Start = una
	}
	st.setSACK(ivs)
	if st.SACKCnt == 0 {
		// Recovery episode over: the peer holds nothing above UNA.
		st.Flags &^= flagSACKRenege | flagSACKRecovery
	}
}

// trimRetxQueue drops queued retransmit ranges the cumulative ack now
// covers.
func trimRetxQueue(st *ProtoState, una uint32) {
	n := 0
	for i := 0; i < int(st.RetxCnt); i++ {
		h := st.RetxQ[i]
		if SeqLEQ(h.End, una) {
			continue
		}
		if SeqLT(h.Start, una) {
			h.Start = una
		}
		st.RetxQ[n] = h
		n++
	}
	st.RetxCnt = uint8(n)
}

// fillSACKRetx extends the selective-retransmit queue with the holes
// between scoreboard intervals in [SND.UNA, high), where high is the
// highest SACKed sequence (everything below it is presumed lost, FACK
// style); data beyond SND.NXT is unsent and recovered by normal
// transmission. During an ongoing recovery episode it resumes from
// HighRetx (RFC 6675's HighRxt), so partial acks and freshly reported
// blocks extend the repair without ever re-queueing a repaired hole.
// Returns false when there is nothing new to repair, in which case the
// first caller (the third duplicate ACK) falls back to go-back-N.
func fillSACKRetx(st *ProtoState) bool {
	if st.SACKCnt == 0 {
		return false
	}
	high := st.SACKScore[st.SACKCnt-1].End
	if SeqGT(high, st.Seq) {
		high = st.Seq
	}
	prev := st.UnackedBase()
	if st.Flags&flagSACKRecovery != 0 && SeqGT(st.HighRetx, prev) {
		prev = st.HighRetx
	}
	added := false
	for i := 0; i < int(st.SACKCnt) && int(st.RetxCnt) < len(st.RetxQ); i++ {
		b := st.SACKScore[i]
		if SeqGEQ(prev, high) {
			break
		}
		if SeqLEQ(b.End, prev) {
			continue
		}
		if SeqGT(b.Start, prev) {
			end := SeqMin(b.Start, high)
			if SeqLT(prev, end) {
				st.RetxQ[st.RetxCnt] = SeqInterval{Start: prev, End: end}
				st.RetxCnt++
				st.HighRetx = end
				added = true
			}
		}
		if SeqGT(b.End, prev) {
			prev = b.End
		}
	}
	if added {
		st.Flags |= flagSACKRecovery
	}
	return added
}

// gobackN resets transmission state to the last acknowledged position
// (§3.1.1 "Reset"): unacked bytes return to the available pool and the
// buffer head rewinds, wrapped to the TX buffer so TxPos stays a valid
// buffer offset (uint32 two's-complement subtraction masked by a
// power-of-two size reduces correctly modulo the buffer).
func gobackN(st *ProtoState, post *PostState) {
	st.Seq -= st.TxSent
	st.TxPos = wrap(st.TxPos-st.TxSent, post.TxSize)
	st.TxAvail += st.TxSent
	st.TxSent = 0
	// The reset retransmits everything from SND.UNA, so the selective
	// queue is moot; the scoreboard is discarded per RFC 2018's reneging
	// rule (a timeout must not trust previously reported blocks).
	st.SACKCnt = 0
	st.RetxCnt = 0
	st.Flags &^= flagSACKRenege | flagSACKRecovery
	if st.Flags&flagFinSent != 0 && st.Flags&flagFinAcked == 0 {
		// FIN must be retransmitted too.
		st.Flags &^= flagFinSent
		st.Flags |= flagFinPending
	}
}

// wrap reduces pos modulo a power-of-two buffer size.
func wrap(pos, size uint32) uint32 {
	if size == 0 {
		return pos
	}
	return pos & (size - 1)
}
