// Package baseline implements the three comparison stacks of the paper's
// evaluation — the Linux kernel TCP stack, the TAS kernel-bypass
// accelerator, and the Chelsio Terminator TOE — as one functional host-TCP
// engine with three personalities. All three move real bytes through real
// TCP segments over the simulated fabric; they differ in
//
//   - per-request host CPU cost profile (Table 1),
//   - processing architecture (in-kernel inline with global locks;
//     dedicated fast-path cores; NIC ASIC with kernel-mediated API),
//   - loss recovery (SACK-style selective repeat; go-back-N with a single
//     out-of-order interval — the TAS/FlexTOE design; out-of-order discard
//     with timeout-only recovery — the Chelsio behaviour Fig. 15 exposes),
//   - tail-latency character (scheduler and interrupt jitter for the
//     kernel paths).
package baseline

import "flextoe/internal/sim"

// Recovery selects the loss-recovery behaviour.
type Recovery int

const (
	// RecoverySACK: multi-interval reassembly with real SACK blocks on
	// the wire and scoreboard-driven selective repeat (Linux; "more
	// sophisticated reassembly and recovery algorithms, including
	// selective acknowledgments", §5.3). Shares the interval-set
	// machinery with the FlexTOE protocol stage.
	RecoverySACK Recovery = iota
	// RecoveryGBN: go-back-N with one receiver out-of-order interval
	// (TAS; identical semantics to FlexTOE's data-path).
	RecoveryGBN
	// RecoveryDiscard: receiver drops all out-of-order segments,
	// sender recovers on timeout only (Chelsio's steep Fig. 15 decline).
	RecoveryDiscard
)

// Profile is one stack's cost and behaviour model. Cycle figures derive
// from Table 1 (measured per Memcached request-response pair) decomposed
// into per-segment and per-call costs; a request involves roughly 2.5
// segment operations (request in, response out, ack processing).
type Profile struct {
	Name string

	// Host cycles per segment for NIC driver + TCP/IP processing.
	DriverPerSeg int64
	TCPPerSeg    int64
	// Host cycles per socket call (send or recv).
	SocketPerOp int64
	// Unattributed per-request cycles (syscall entry, scheduling,
	// accounting — Table 1 "Other"), charged per segment op.
	OtherPerSeg int64
	// Copy cost per payload byte.
	PerByte float64

	// Architecture.
	StackCores int     // dedicated fast-path cores (TAS); 0 = inline
	LockFrac   float64 // fraction of TCP cycles under a global kernel lock
	ASIC       bool    // TCP processed on the NIC (Chelsio)
	ASICSegNs  float64 // ASIC per-segment service time

	// Tail behaviour: probability a segment op picks up a scheduler /
	// interrupt / softirq spike, and its mean (exponential).
	SpikeProb   float64
	SpikeMeanUs float64

	// Per-op overhead growth with connection count (epoll scans, socket
	// table pressure): extra cycles per op = ConnPenalty * log2(conns).
	ConnPenalty float64

	// NotifyWakeupUs is the idle-wakeup latency when data arrives for a
	// sleeping application (interrupt + scheduler for kernel stacks,
	// context-queue poll handoff for TAS). Charged only when the
	// application core is idle: under load, notifications batch.
	NotifyWakeupUs float64

	Recovery Recovery

	// OOOIntervals caps the receiver's out-of-order reassembly interval
	// set (shared with the FlexTOE protocol stage). 0 defaults by
	// recovery policy: SACK 32, GBN 1 (the TAS design), Discard 0.
	OOOIntervals int

	// MinRTO for this stack's retransmission timer.
	MinRTO sim.Time

	// ListenBacklog caps half-open (SYN-received, first-ACK pending)
	// connections per listening port; SYNs beyond it are silently
	// dropped, as the kernel SYN queue does. 0 = unbounded (the default:
	// scaling experiments open storms of connections by design).
	ListenBacklog int

	// MSS is the maximum segment size (default 1448).
	MSS uint32
}

// mss returns the configured MSS with the default applied.
func (p *Profile) mss() uint64 {
	if p.MSS == 0 {
		return 1448
	}
	return uint64(p.MSS)
}

// oooIvs returns the reassembly interval capacity with the
// recovery-policy default applied.
func (p *Profile) oooIvs() int {
	if p.OOOIntervals > 0 {
		return p.OOOIntervals
	}
	switch p.Recovery {
	case RecoverySACK:
		return 32
	case RecoveryGBN:
		return 1
	}
	return 0
}

// LinuxProfile models the in-kernel stack (Table 1 column 1: 12.13 kc
// per request, 62% stall cycles, versatile but bulky).
func LinuxProfile() Profile {
	return Profile{
		Name:           "Linux",
		DriverPerSeg:   280,  // 0.71 kc/req over ~2.5 segment ops
		TCPPerSeg:      1700, // 4.25 kc/req
		SocketPerOp:    1240, // 2.48 kc/req over 2 calls
		OtherPerSeg:    1370, // 3.42 kc/req
		PerByte:        0.35,
		LockFrac:       0.40,
		SpikeProb:      0.015,
		SpikeMeanUs:    40,
		ConnPenalty:    16,
		NotifyWakeupUs: 30, // interrupt + softirq + scheduler wakeup
		Recovery:       RecoverySACK,
		MinRTO:         4 * sim.Millisecond,
	}
}

// TASProfile models TAS (Table 1 column 3: 3.34 kc per request, driver +
// TCP on dedicated fast-path cores, lean sockets).
func TASProfile() Profile {
	return Profile{
		Name:           "TAS",
		DriverPerSeg:   72,  // 0.18 kc/req
		TCPPerSeg:      576, // 1.44 kc/req (Table 6 breaks down the 1,440)
		SocketPerOp:    395, // 0.79 kc/req
		OtherPerSeg:    36,  // 0.09 kc/req
		PerByte:        0.30,
		StackCores:     1,
		SpikeProb:      0.0015,
		SpikeMeanUs:    15,
		ConnPenalty:    2,
		NotifyWakeupUs: 6, // fast-path to app context-queue handoff
		Recovery:       RecoveryGBN,
		MinRTO:         2 * sim.Millisecond,
	}
}

// ChelsioProfile models the Terminator TOE (Table 1 column 2: 8.89 kc
// per request despite NIC-side TCP, because the kernel mediates the API;
// 100 Gbps unidirectional streaming strength; OOO discard on loss).
func ChelsioProfile() Profile {
	return Profile{
		Name:           "Chelsio",
		DriverPerSeg:   512,  // 1.28 kc/req: the "sophisticated TOE NIC driver"
		TCPPerSeg:      160,  // 0.40 kc/req residual host TCP glue
		SocketPerOp:    1305, // 2.61 kc/req
		OtherPerSeg:    1310, // 3.28 kc/req: kernel interaction
		PerByte:        0.12, // efficient DMA placement
		ASIC:           true,
		ASICSegNs:      120,
		LockFrac:       0.35,
		SpikeProb:      0.012,
		SpikeMeanUs:    35,
		ConnPenalty:    60, // epoll() overhead dominates at high counts (§5.2)
		NotifyWakeupUs: 3,  // interrupt, but a short kernel path
		Recovery:       RecoveryDiscard,
		MinRTO:         8 * sim.Millisecond,
	}
}
