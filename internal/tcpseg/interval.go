package tcpseg

// Out-of-order reassembly interval set. The protocol stage tracks the
// byte ranges received beyond RCV.NXT as a small, sorted, disjoint set of
// sequence-space intervals. TAS (and the paper's FlexTOE) keep exactly
// one; generalizing to a fixed capacity N lets the receiver survive
// multiple concurrent holes without dropping payload, at a known state
// cost per connection. The same insertion/merge logic backs the FlexTOE
// protocol stage (ProtoState, capacity <= MaxOOOIntervals) and the
// baseline host stacks (a slice, capacity set by the stack personality).
//
// All interval arithmetic is RFC 793 serial-number arithmetic: correct as
// long as every tracked interval lies within 2^31 bytes of the receive
// window, which the window trim in ProcessRX guarantees.

// MaxOOOIntervals is the backing capacity of the per-connection interval
// set in ProtoState. The effective policy limit is ProtoState.OOOCap
// (default 1, the paper's Table 5 state budget).
const MaxOOOIntervals = 4

// SeqInterval is one contiguous out-of-order range [Start, End) in
// sequence space. Start == End never occurs in a maintained set.
type SeqInterval struct {
	Start, End uint32
}

// IvResult reports what an insertion did, for the reassembly counters.
type IvResult struct {
	Accepted bool // payload may be placed in the receive buffer
	Merged   int  // previously separate intervals coalesced away
	AtHead   bool // touched the head (lowest) interval of the prior set
}

// InsertSeqInterval merges iv into the sorted, disjoint, non-adjacent set
// ivs, enforcing a capacity of max intervals. Overlapping and abutting
// intervals coalesce. A disjoint insertion that would exceed max is
// rejected and the set is left unchanged (the caller drops the payload
// and re-ACKs the expected sequence number). The returned slice shares
// ivs's backing array unless growth required reallocation.
func InsertSeqInterval(ivs []SeqInterval, iv SeqInterval, max int) ([]SeqInterval, IvResult) {
	if iv.Start == iv.End || max <= 0 {
		return ivs, IvResult{}
	}
	// Locate the run ivs[i:j] that overlaps or abuts iv.
	i := 0
	for i < len(ivs) && SeqLT(ivs[i].End, iv.Start) {
		i++
	}
	j := i
	for j < len(ivs) && SeqLEQ(ivs[j].Start, iv.End) {
		j++
	}
	if i == j {
		// Disjoint from every tracked interval.
		if len(ivs) >= max {
			return ivs, IvResult{}
		}
		ivs = append(ivs, SeqInterval{})
		copy(ivs[i+1:], ivs[i:])
		ivs[i] = iv
		return ivs, IvResult{Accepted: true}
	}
	res := IvResult{Accepted: true, Merged: j - i - 1, AtHead: i == 0}
	lo := SeqMin(ivs[i].Start, iv.Start)
	hi := SeqMax(ivs[j-1].End, iv.End)
	ivs[i] = SeqInterval{lo, hi}
	copy(ivs[i+1:], ivs[j:])
	return ivs[:len(ivs)-res.Merged], res
}

// MergeAdvance consumes every interval reachable from the cumulative ack
// point: intervals starting at or before ack are merged into the in-order
// stream (ack jumps to their end when it extends coverage). It returns
// the remaining set, the advanced ack, and how many intervals merged.
// The returned slice aliases a suffix of ivs; array-backed callers must
// copy it back down (see ProtoState.setOOO).
func MergeAdvance(ivs []SeqInterval, ack uint32) ([]SeqInterval, uint32, int) {
	merged := 0
	for len(ivs) > 0 && SeqLEQ(ivs[0].Start, ack) {
		if SeqGT(ivs[0].End, ack) {
			ack = ivs[0].End
		}
		ivs = ivs[1:]
		merged++
	}
	return ivs, ack, merged
}
