// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5). Each benchmark runs the corresponding experiment at
// Quick scale once per iteration and reports the headline metric; run
// cmd/flexbench -full for paper-scale sweeps. Per-core-count harness
// scaling curves (sweep cells on a worker pool) live in
// internal/experiments/bench_test.go (BenchmarkFig8SweepCores*,
// BenchmarkFig17SweepCores*) and in the scaling tables flexbench emits
// with -cores > 1.
package main

import (
	"testing"

	"flextoe/internal/experiments"
	"flextoe/internal/packet"
	"flextoe/internal/tcpseg"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	r, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables := r.Run(experiments.Quick)
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkTable1CPUImpact regenerates Table 1: per-request CPU impact of
// TCP processing for Linux, Chelsio, TAS and FlexTOE.
func BenchmarkTable1CPUImpact(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2Extensions regenerates Table 2: throughput with
// profiling, tcpdump, XDP and splicing extensions.
func BenchmarkTable2Extensions(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTable3ParallelismAblation regenerates Table 3: the five-step
// data-path parallelism breakdown.
func BenchmarkTable3ParallelismAblation(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTable4Incast regenerates Table 4: congestion control under
// incast, on and off.
func BenchmarkTable4Incast(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkTable5StatePartitioning verifies Table 5: per-stage connection
// state sizes.
func BenchmarkTable5StatePartitioning(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkTable6TASBreakdown regenerates Table 6: TAS per-packet TCP/IP
// processing phases.
func BenchmarkTable6TASBreakdown(b *testing.B) { runExperiment(b, "table6") }

// BenchmarkFig8MemcachedScalability regenerates Figure 8: memcached
// throughput vs server cores.
func BenchmarkFig8MemcachedScalability(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9LatencyCDF regenerates Figure 9: latency for all 16
// server/client stack combinations.
func BenchmarkFig9LatencyCDF(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10RPCThroughput regenerates Figure 10: RX/TX throughput at
// 250 and 1,000 cycles per RPC.
func BenchmarkFig10RPCThroughput(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11RPCLatency regenerates Figure 11: median/99p/99.99p RPC
// RTT vs message size.
func BenchmarkFig11RPCLatency(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12LargeRPC regenerates Figure 12: single-connection large
// RPC goodput, uni- and bidirectional.
func BenchmarkFig12LargeRPC(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig13ConnScalability regenerates Figure 13: throughput vs
// number of established connections.
func BenchmarkFig13ConnScalability(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkFig14Generalization regenerates Figure 14: the BlueField and
// x86 ports across MSS values.
func BenchmarkFig14Generalization(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkFig15LossRobustness regenerates Figure 15: throughput under
// injected packet loss.
func BenchmarkFig15LossRobustness(b *testing.B) { runExperiment(b, "fig15") }

// BenchmarkFig16Fairness regenerates Figure 16: per-connection goodput
// distribution at line rate.
func BenchmarkFig16Fairness(b *testing.B) { runExperiment(b, "fig16") }

// BenchmarkFig17Fabric regenerates Figure 17 (reproduction extension):
// incast fan-in × congestion control on the leaf-spine fabric, plus the
// ECMP spine-balance table.
func BenchmarkFig17Fabric(b *testing.B) { runExperiment(b, "fig17") }

// BenchmarkFig9ConnScale regenerates the Figure 9-style connection-scale
// sweep (reproduction extension): B/conn, idle timer cost, and active
// goodput vs idle fleet size, the Zipf-activity fleet, and the
// setup/teardown storm.
func BenchmarkFig9ConnScale(b *testing.B) { runExperiment(b, "fig9conn") }

// ---------------------------------------------------------------------
// Reassembly microbenchmarks: the protocol stage's RX hot path under
// in-order delivery, a single hole (the paper's N=1 sweet spot), and
// many concurrent holes (where only the multi-interval configuration
// keeps payload). One iteration reassembles a full 32 KB window.
// ---------------------------------------------------------------------

func benchReassembly(b *testing.B, oooCap uint8, skipEvery int) {
	const segN = 64
	const segSz = 512
	const winSz = segN * segSz
	b.ReportAllocs()
	b.SetBytes(winSz)
	for i := 0; i < b.N; i++ {
		st := &tcpseg.ProtoState{RxAvail: winSz, RemoteWin: winSz >> tcpseg.WindowScale, OOOCap: oooCap}
		post := &tcpseg.PostState{RxSize: winSz, TxSize: winSz}
		// First pass: deliver everything except the holes.
		for s := 0; s < segN; s++ {
			if skipEvery > 0 && s%skipEvery == 0 {
				continue
			}
			info := tcpseg.SegInfo{Seq: uint32(s * segSz), PayloadLen: segSz, Flags: packet.FlagACK}
			tcpseg.ProcessRX(st, post, &info, 0)
		}
		// Second pass: retransmissions fill the holes in order.
		for s := 0; s < segN; s++ {
			if !(skipEvery > 0 && s%skipEvery == 0) {
				continue
			}
			info := tcpseg.SegInfo{Seq: uint32(s * segSz), PayloadLen: segSz, Flags: packet.FlagACK}
			tcpseg.ProcessRX(st, post, &info, 0)
		}
		// Whatever a capacity-limited tracker dropped arrives again as
		// in-order retransmissions until the window closes.
		for st.Ack < winSz {
			info := tcpseg.SegInfo{Seq: st.Ack, PayloadLen: segSz, Flags: packet.FlagACK}
			tcpseg.ProcessRX(st, post, &info, 0)
		}
		if st.Ack != winSz || st.OOOCnt != 0 {
			b.Fatalf("window not reassembled: ack=%d ivs=%d", st.Ack, st.OOOCnt)
		}
	}
}

// BenchmarkReassemblyInOrder is the no-loss fast path.
func BenchmarkReassemblyInOrder(b *testing.B) { benchReassembly(b, 1, 0) }

// BenchmarkReassemblySingleHole drops one head segment: one interval
// suffices (the TAS/FlexTOE design point).
func BenchmarkReassemblySingleHoleN1(b *testing.B) { benchReassembly(b, 1, 64) }
func BenchmarkReassemblySingleHoleN4(b *testing.B) { benchReassembly(b, 4, 64) }

// BenchmarkReassemblyMultiHole drops every 8th segment: concurrent holes
// overflow a single interval and force drops + retransmissions at N=1.
func BenchmarkReassemblyMultiHoleN1(b *testing.B) { benchReassembly(b, 1, 8) }
func BenchmarkReassemblyMultiHoleN4(b *testing.B) { benchReassembly(b, 4, 8) }

// ---------------------------------------------------------------------
// Retransmission microbenchmark: one window with every 16th segment lost
// on the first flight, recovered via duplicate ACKs — go-back-N resends
// everything from the loss, SACK repairs only the four holes. Reports
// retransmitted bytes per recovered window alongside the usual
// throughput numbers; CI runs it as a smoke test for the recovery path.
// ---------------------------------------------------------------------

func benchRetransmit(b *testing.B, sack bool) {
	const segN = 64
	const segSz = 512
	const winSz = segN * segSz
	b.ReportAllocs()
	b.SetBytes(winSz)
	var retx uint64
	ackInfoOf := func(r tcpseg.RXResult) tcpseg.SegInfo {
		info := tcpseg.SegInfo{
			Seq: r.AckSeq, Ack: r.AckAck, Flags: packet.FlagACK, Window: r.AckWin,
		}
		copy(info.SACK[:], r.AckSACK[:r.AckSACKCnt])
		info.SACKCnt = r.AckSACKCnt
		return info
	}
	for i := 0; i < b.N; i++ {
		snd := &tcpseg.ProtoState{RxAvail: winSz, RemoteWin: winSz >> tcpseg.WindowScale, OOOCap: 4}
		sndPost := &tcpseg.PostState{RxSize: winSz, TxSize: winSz}
		rcv := &tcpseg.ProtoState{RxAvail: winSz, RemoteWin: winSz >> tcpseg.WindowScale, OOOCap: 4}
		rcvPost := &tcpseg.PostState{RxSize: winSz, TxSize: winSz}
		snd.SetSACKPerm(sack)
		rcv.SetSACKPerm(sack)
		tcpseg.ProcessHC(snd, sndPost, tcpseg.HCOp{Kind: tcpseg.HCTx, Bytes: winSz})

		var acks []tcpseg.SegInfo
		deliver := func(seg tcpseg.TXResult, drop bool) {
			retx += uint64(seg.RetxBytes)
			if drop {
				return
			}
			info := tcpseg.SegInfo{Seq: seg.Seq, Ack: seg.Ack, Flags: packet.FlagACK, Window: seg.Win, PayloadLen: seg.Len}
			if res := tcpseg.ProcessRX(rcv, rcvPost, &info, 0); res.SendAck {
				acks = append(acks, ackInfoOf(res))
			}
		}
		// First flight: every 16th segment lost.
		for {
			seg, ok := tcpseg.ProcessTX(snd, sndPost, segSz, 0)
			if !ok {
				break
			}
			deliver(seg, (seg.Seq/segSz)%16 == 0)
		}
		// Recovery rounds: loss-free from here.
		for round := 0; rcv.Ack != winSz; round++ {
			if round > 64 {
				b.Fatalf("recovery did not converge: rcv.Ack=%d", rcv.Ack)
			}
			pending := acks
			acks = nil
			progress := len(pending) > 0
			for i := range pending {
				tcpseg.ProcessRX(snd, sndPost, &pending[i], 0)
			}
			for {
				seg, ok := tcpseg.ProcessTX(snd, sndPost, segSz, 0)
				if !ok {
					break
				}
				progress = true
				deliver(seg, false)
			}
			if !progress {
				// Control-plane RTO: go-back-N reset.
				tcpseg.ProcessHC(snd, sndPost, tcpseg.HCOp{Kind: tcpseg.HCRetransmit})
			}
		}
	}
	b.ReportMetric(float64(retx)/float64(b.N), "retx-B/op")
}

// BenchmarkRetransmitSACKvsGBN compares the two recovery schemes on the
// identical loss pattern; the retx-B/op metric is the headline.
func BenchmarkRetransmitSACKvsGBN(b *testing.B) {
	b.Run("GBN", func(b *testing.B) { benchRetransmit(b, false) })
	b.Run("SACK", func(b *testing.B) { benchRetransmit(b, true) })
}
