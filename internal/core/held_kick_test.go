package core_test

import (
	"fmt"
	"testing"

	"flextoe/internal/api"
	"flextoe/internal/apps"
	"flextoe/internal/ctrl"
	"flextoe/internal/netsim"
	"flextoe/internal/packet"
	"flextoe/internal/sim"
	"flextoe/internal/testbed"
)

// kickEntry is one observation of a run's order: a frame a TOE sends or
// receives, or a control-plane delivery together with the TX segments in
// flight at that moment — the count that differs when a same-instant pump
// and the delivery trade places.
type kickEntry struct {
	at       sim.Time
	machine  int
	what     byte // 't' frame sent, 'r' frame received, 'c' control delivery
	seq, ack uint32
	flags    uint8
	n        int // payload bytes, or TX segments in flight
}

// heldKickRow is one workload on a two-machine FlexTOE testbed: run drives
// it to its end and summarises what it achieved.
type heldKickRow struct {
	name string
	run  func(tb *testbed.Testbed) string
	cc   ctrl.CCAlgo
}

// runHeldKickRow runs a row, with every TOE arming its pump on every kick
// when eager is set, and returns the run's observations, a summary of its
// end state and the events it executed.
func runHeldKickRow(row heldKickRow, eager bool) ([]kickEntry, string, uint64) {
	tb := testbed.New(netsim.SwitchConfig{Seed: 3},
		testbed.MachineSpec{Name: "server", Kind: testbed.FlexTOE, Cores: 4, BufSize: 1 << 16, CC: row.cc, Seed: 3},
		testbed.MachineSpec{Name: "client", Kind: testbed.FlexTOE, Cores: 4, BufSize: 1 << 16, CC: row.cc, Seed: 4},
	)
	var log []kickEntry
	for i, name := range []string{"server", "client"} {
		i, toe := i, tb.M(name).TOE
		if eager {
			toe.ArmTXEagerly()
		}
		toe.PacketTap = func(dir string, pkt *packet.Packet) {
			log = append(log, kickEntry{tb.Eng.Now(), i, dir[0], pkt.TCP.Seq, pkt.TCP.Ack, pkt.TCP.Flags, len(pkt.Payload)})
		}
		deliver := toe.ControlRx
		toe.ControlRx = func(pkt *packet.Packet) {
			log = append(log, kickEntry{tb.Eng.Now(), i, 'c', pkt.TCP.Seq, pkt.TCP.Ack, pkt.TCP.Flags, toe.TxInflight()})
			deliver(pkt)
		}
	}
	end := row.run(tb)
	for _, name := range []string{"server", "client"} {
		m := tb.M(name)
		end += fmt.Sprintf(" %s %+v established %d", name, m.TOE.Counters, m.Ctrl.Established)
	}
	return log, end, tb.Eng.Processed()
}

// TestHeldKickMatchesEagerArm holds the transmit pump's held kick (kickTX
// arms only when the carousel holds a flow) to the eager arm it replaced:
// every frame on both TOEs, in order and at the same instant, every
// control-plane delivery with the same TX segments in flight, and the
// same end state, in fewer events. Rows: RPC traffic under connection
// churn through the control plane (handshakes, closes and stray segments
// land beside the data path's kicks), and TIMELY-paced bulk streams, whose
// flows wait on the carousel's wheel between deadline kicks. Kills: taking
// a carousel with only wheel items for empty (rate-limited row). Dropping
// the arm before controlCb needs a held kick, a control delivery and a
// submit on one picosecond, which neither row meets; TestHeldKickSameInstant
// builds that instant and kills it.
func TestHeldKickMatchesEagerArm(t *testing.T) {
	rows := []heldKickRow{
		{name: "churn", run: churnRow},
		{name: "rate-limited", run: pacedBulkRow, cc: ctrl.CCTimely},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			want, wantEnd, eagerEvents := runHeldKickRow(row, true)
			got, gotEnd, events := runHeldKickRow(row, false)
			for i := 0; i < len(want) && i < len(got); i++ {
				if got[i] != want[i] {
					t.Fatalf("observation %d of %d: held kick %+v, eager arm %+v", i, len(want), got[i], want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("held kick made %d observations, eager arm %d", len(got), len(want))
			}
			if gotEnd != wantEnd {
				t.Fatalf("end state differs:\nheld  %s\neager %s", gotEnd, wantEnd)
			}
			controls := 0
			for _, e := range want {
				if e.what == 'c' {
					controls++
				}
			}
			t.Logf("%d observations, %d control deliveries; %d events, eager arm %d", len(want), controls, events, eagerEvents)
			if events >= eagerEvents {
				t.Errorf("held kick ran %d events, eager arm %d: no pump left out", events, eagerEvents)
			}
		})
	}
}

// churnRow: pipelined RPCs on eight connections while the client dials
// four connections every 40 us to a port whose server side closes each
// at once, and closes each itself once established.
func churnRow(tb *testbed.Testbed) string {
	srv := &apps.RPCServer{ReqSize: 64, AppCycles: 250}
	srv.Serve(tb.M("server").Stack, 9100)
	cli := &apps.ClosedLoopClient{ReqSize: 64, Pipeline: 4}
	cli.Start(tb.M("client").Stack, tb.Addr("server", 9100), 8)
	tb.M("server").Stack.Listen(9090, func(sock api.Socket) { sock.Close() })
	dials := 0
	for at := 100 * sim.Microsecond; at < 4*sim.Millisecond; at += 40 * sim.Microsecond {
		tb.Eng.AfterCall(at-tb.Eng.Now(), func(any) {
			for i := 0; i < 4; i++ {
				tb.M("client").Stack.Dial(tb.Addr("server", 9090), func(sock api.Socket) { sock.Close() })
				dials++
			}
		}, nil)
	}
	tb.Run(6 * sim.Millisecond)
	return fmt.Sprintf("dials %d rpcs %d", dials, cli.Completed)
}

// pacedBulkRow: two bulk streams each way under TIMELY, whose pacing
// interval puts every flow on the carousel's wheel.
func pacedBulkRow(tb *testbed.Testbed) string {
	var sinks [2]apps.BulkSink
	for i, m := range []string{"server", "client"} {
		sinks[i].Serve(tb.M(m).Stack, 9000)
	}
	for i := 0; i < 2; i++ {
		(&apps.BulkSender{}).Start(tb.M("client").Stack, tb.Addr("server", 9000))
		(&apps.BulkSender{}).Start(tb.M("server").Stack, tb.Addr("client", 9000))
	}
	tb.Run(3 * sim.Millisecond)
	return fmt.Sprintf("received %d %d", sinks[0].Received, sinks[1].Received)
}
