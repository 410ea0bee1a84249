// Package trace implements the debugging and auditing features §5.1 uses
// to demonstrate FlexTOE's flexibility: 48 data-path tracepoints (transport
// events, inter-module queue occupancies, critical-section lengths),
// statistics/profiling builds, and tcpdump-style packet logging with
// header filters.
//
// Tracepoints cost real simulated cycles when enabled (Table 2 measures a
// 24% degradation with all 48 on), so the registry is consulted by the
// pipeline's cost model as well as by the event sinks.
package trace

import (
	"fmt"
	"sort"
)

// Point identifies one tracepoint.
type Point int

// Transport-event tracepoints (per connection).
const (
	TPConnDrop       Point = iota // segment dropped (out of window)
	TPConnOOO                     // out-of-order segment accepted
	TPConnOOODrop                 // out-of-order segment outside interval
	TPConnRetransmit              // go-back-N reset
	TPConnFastRetx                // 3-dupack fast retransmit
	TPConnDupAck
	TPConnFinRx
	TPConnFinTx
	TPConnEstablished
	TPConnClosed
	TPConnZeroWindow
	TPConnWindowUpdate
	TPConnECNMarked
	TPConnTSEcho
	TPConnKeepAlive
	TPConnStaleAck

	// Pipeline-stage events.
	TPPreValidateFail
	TPPreLookupMiss
	TPPreFilterControl
	TPPreSteer
	TPProtoRX
	TPProtoTX
	TPProtoHC
	TPProtoStateMiss
	TPPostAckGen
	TPPostNotify
	TPPostStats
	TPDMAPayloadRX
	TPDMAPayloadTX
	TPDMADescriptor
	TPCtxQDoorbell
	TPCtxQNotify
	TPSchedSubmit
	TPSchedPop
	TPSegAllocFail
	TPDescAllocFail

	// Queue-occupancy tracepoints (sampled on every enqueue).
	TPQPre
	TPQProto
	TPQPost
	TPQDMA
	TPQCtx
	TPQNBI

	// Critical-section length tracepoints in the protocol module, per
	// event type (§5.1).
	TPCritRX
	TPCritTX
	TPCritHC
	TPCritRetx

	// Reordering diagnostics.
	TPReorderHold
	TPReorderRelease

	NumPoints // == 48
)

var pointNames = [NumPoints]string{
	"conn_drop", "conn_ooo", "conn_ooo_drop", "conn_retransmit",
	"conn_fast_retx", "conn_dup_ack", "conn_fin_rx", "conn_fin_tx",
	"conn_established", "conn_closed", "conn_zero_window",
	"conn_window_update", "conn_ecn_marked", "conn_ts_echo",
	"conn_keepalive", "conn_stale_ack",
	"pre_validate_fail", "pre_lookup_miss", "pre_filter_control",
	"pre_steer", "proto_rx", "proto_tx", "proto_hc", "proto_state_miss",
	"post_ack_gen", "post_notify", "post_stats", "dma_payload_rx",
	"dma_payload_tx", "dma_descriptor", "ctxq_doorbell", "ctxq_notify",
	"sched_submit", "sched_pop", "seg_alloc_fail", "desc_alloc_fail",
	"q_pre", "q_proto", "q_post", "q_dma", "q_ctx", "q_nbi",
	"crit_rx", "crit_tx", "crit_hc", "crit_retx",
	"reorder_hold", "reorder_release",
}

// Name returns the tracepoint's identifier string.
func (p Point) Name() string {
	if p < 0 || p >= NumPoints {
		return fmt.Sprintf("tp%d", int(p))
	}
	return pointNames[p]
}

// CyclesPerHit is the data-path cost of one enabled tracepoint hit: a
// counter increment in CTM plus the occasional ring append.
const CyclesPerHit = 22

// Registry holds tracepoint state: one switch for all 48 points. The zero
// value has them off; hits cost nothing when off (compiled out in the
// real system, branch-not-taken here). A registry belongs to one TOE and
// is touched only by its engine's goroutine.
type Registry struct {
	on       bool
	counters [NumPoints]uint64
}

// EnableAll turns on every tracepoint (Table 2's "statistics and
// profiling" build).
func (r *Registry) EnableAll() { r.on = true }

// Hit records an event. It returns the cycle cost the data-path pays (0
// when tracing is off).
func (r *Registry) Hit(p Point) int64 { return r.HitN(p, 1) }

// HitN records an event with a count (queue occupancies).
func (r *Registry) HitN(p Point, n uint64) int64 {
	if r == nil || !r.on {
		return 0
	}
	r.counters[p] += n
	return CyclesPerHit
}

// Count returns a tracepoint's event count.
func (r *Registry) Count(p Point) uint64 {
	if r == nil {
		return 0
	}
	return r.counters[p]
}

// Snapshot returns all non-zero counters sorted by name.
func (r *Registry) Snapshot() []PointCount {
	var out []PointCount
	for p := Point(0); p < NumPoints; p++ {
		if c := r.Count(p); c > 0 {
			out = append(out, PointCount{Point: p, Count: c})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Point.Name() < out[j].Point.Name() })
	return out
}

// PointCount pairs a tracepoint with its observed count.
type PointCount struct {
	Point Point
	Count uint64
}
