package tcpseg

// TXResult describes one segment to transmit, produced by the protocol
// stage's "Seq" step (Fig. 5): the assigned sequence number and the
// transmit-buffer position the DMA stage fetches payload from.
type TXResult struct {
	Seq    uint32 // TCP sequence number for the segment
	BufPos uint32 // TX payload buffer offset of the first byte
	Len    uint32 // payload bytes
	FIN    bool   // segment carries FIN
	Ack    uint32 // current cumulative ack (piggybacked)
	Win    uint16 // scaled advertised window
	EchoTS uint32 // peer timestamp to echo

	// Retransmit: the segment was emitted from the selective-retransmit
	// queue (a SACK-identified hole), not the regular send path.
	Retransmit bool
	// RetxBytes counts how many of Len were already transmitted before
	// (selective repairs, and go-back-N resends below SND.MAX), for the
	// loss-recovery accounting in Fig. 15.
	RetxBytes uint32

	// SACK blocks to piggyback on the data segment (valid prefix of
	// length SACKCnt): when SACK-permitted was negotiated and the receive
	// side holds out-of-order intervals, the data path advertises them on
	// outgoing data too, so heavily bidirectional flows don't wait for a
	// pure ACK to learn about holes.
	SACK    [MaxOOOIntervals]SeqInterval
	SACKCnt uint8
}

// ProcessTX attempts to produce the next segment for transmission. mss
// bounds the payload; cwnd (bytes; 0 = unlimited) is the congestion window
// the flow scheduler enforces from control-plane programming. It returns
// ok=false when flow control, congestion control, or an empty buffer
// prevent sending.
func ProcessTX(st *ProtoState, post *PostState, mss uint32, cwnd uint32) (TXResult, bool) {
	// Selective retransmissions drain ahead of new data. They re-send
	// bytes already counted in TxSent, so flow and congestion windows are
	// unaffected (fast-retransmit segments are always allowed out); the
	// queue is bounded by the scoreboard's hole count.
	if st.RetxCnt > 0 {
		h := st.RetxQ[0]
		n := uint32(SeqDiff(h.End, h.Start))
		if n > mss {
			n = mss
		}
		res := TXResult{
			Seq:        h.Start,
			BufPos:     wrap(st.TxPos-uint32(SeqDiff(st.Seq, h.Start)), post.TxSize),
			Len:        n,
			Ack:        st.Ack,
			Win:        st.LocalWindow(),
			EchoTS:     st.NextTS,
			Retransmit: true,
			RetxBytes:  n,
		}
		res.SACKCnt = copySACK(st, &res.SACK, 0, false)
		h.Start += n
		if h.Start == h.End {
			copy(st.RetxQ[:], st.RetxQ[1:st.RetxCnt])
			st.RetxCnt--
		} else {
			st.RetxQ[0] = h
		}
		return res, true
	}

	sendable := st.TxAvail
	// Flow control: never exceed the peer's advertised window.
	if rw := st.RemoteWindowBytes(); st.TxSent >= rw {
		sendable = 0
	} else if room := rw - st.TxSent; sendable > room {
		sendable = room
	}
	// Congestion control: window programmed by the control plane.
	if cwnd > 0 {
		if st.TxSent >= cwnd {
			sendable = 0
		} else if room := cwnd - st.TxSent; sendable > room {
			sendable = room
		}
	}
	if sendable > mss {
		sendable = mss
	}

	// The FIN rides on the segment that drains the buffer (or goes bare
	// when the buffer is already empty).
	fin := st.Flags&flagFinPending != 0 && sendable == st.TxAvail
	if sendable == 0 && !fin {
		return TXResult{}, false
	}

	res := TXResult{
		Seq:    st.Seq,
		BufPos: wrap(st.TxPos, post.TxSize),
		Len:    sendable,
		FIN:    fin,
		Ack:    st.Ack,
		Win:    st.LocalWindow(),
		EchoTS: st.NextTS,
	}
	res.SACKCnt = copySACK(st, &res.SACK, 0, false)
	// Bytes below SND.MAX were on the wire before a go-back-N rewind:
	// count them as retransmitted.
	if sendable > 0 && SeqLT(st.Seq, st.TxMax) {
		if over := uint32(SeqDiff(st.TxMax, st.Seq)); over < sendable {
			res.RetxBytes = over
		} else {
			res.RetxBytes = sendable
		}
	}
	st.Seq += sendable
	if SeqGT(st.Seq, st.TxMax) {
		st.TxMax = st.Seq
	}
	st.TxPos = wrap(st.TxPos+sendable, post.TxSize)
	st.TxAvail -= sendable
	st.TxSent += sendable
	if fin {
		st.Flags &^= flagFinPending
		st.Flags |= flagFinSent | flagFinEverTx
	}
	return res, true
}

// RetxPending returns the bytes queued for selective retransmission.
func RetxPending(st *ProtoState) uint32 {
	var n uint32
	for i := 0; i < int(st.RetxCnt); i++ {
		n += uint32(SeqDiff(st.RetxQ[i].End, st.RetxQ[i].Start))
	}
	return n
}

// SendableBytes returns how many bytes ProcessTX could currently emit
// (ignoring MSS segmentation), used by the flow scheduler to decide
// whether a flow stays in the active set. Queued selective retransmits
// count: they bypass the windows, exactly as ProcessTX emits them.
func SendableBytes(st *ProtoState, cwnd uint32) uint32 {
	retx := RetxPending(st)
	sendable := st.TxAvail
	if rw := st.RemoteWindowBytes(); st.TxSent >= rw {
		return retx
	} else if room := rw - st.TxSent; sendable > room {
		sendable = room
	}
	if cwnd > 0 {
		if st.TxSent >= cwnd {
			return retx
		}
		if room := cwnd - st.TxSent; sendable > room {
			sendable = room
		}
	}
	return retx + sendable
}

// HCKind discriminates host-control operations (§3.1.1).
type HCKind uint8

const (
	// HCTx: the application appended bytes to the TX payload buffer.
	HCTx HCKind = iota
	// HCRxConsumed: the application consumed bytes from the RX buffer,
	// reopening the receive window.
	HCRxConsumed
	// HCFin: the application closed the connection.
	HCFin
	// HCRetransmit: control-plane-triggered timeout retransmission
	// (go-back-N reset).
	HCRetransmit
)

// HCOp is one host-control descriptor fetched from a context queue.
type HCOp struct {
	Kind  HCKind
	Bytes uint32 // HCTx: appended; HCRxConsumed: consumed
}

// HCResult reports protocol-state changes a host-control operation caused.
type HCResult struct {
	TxWindowOpened   bool // transmit window expanded: poke the flow scheduler
	SendWindowUpdate bool // receive window reopened from (near) zero: ack the peer
	Reset            bool // transmission state was reset (go-back-N)
}

// ProcessHC applies a host-control operation to the protocol state
// ("Win"/"Fin"/"Reset" in Fig. 4). post supplies the buffer geometry a
// go-back-N reset needs to rewind the TX buffer head.
func ProcessHC(st *ProtoState, post *PostState, op HCOp) HCResult {
	var res HCResult
	switch op.Kind {
	case HCTx:
		st.TxAvail += op.Bytes
		res.TxWindowOpened = op.Bytes > 0
	case HCRxConsumed:
		wasClosed := st.LocalWindow() == 0
		st.RxAvail += op.Bytes
		res.SendWindowUpdate = wasClosed && st.LocalWindow() > 0
	case HCFin:
		st.Flags |= flagFinPending
		res.TxWindowOpened = true // scheduler must emit the FIN segment
	case HCRetransmit:
		if st.TxSent > 0 || (st.Flags&flagFinSent != 0 && st.Flags&flagFinAcked == 0) {
			gobackN(st, post)
			res.Reset = true
			res.TxWindowOpened = true
		}
	}
	return res
}

// WindowUpdateAck synthesizes the pure-ACK result that re-advertises the
// receive window after it reopens (prevents zero-window deadlock when the
// application drains a full buffer).
func WindowUpdateAck(st *ProtoState) RXResult {
	seq := st.Seq
	if st.Flags&flagFinSent != 0 {
		seq++
	}
	res := RXResult{
		SendAck: true,
		AckSeq:  seq,
		AckAck:  st.Ack,
		AckWin:  st.LocalWindow(),
		EchoTS:  st.NextTS,
	}
	emitSACK(st, &res, 0, false)
	return res
}
