package experiments

import (
	"runtime"
	"testing"

	"flextoe/internal/api"
	"flextoe/internal/apps"
	"flextoe/internal/netsim"
	"flextoe/internal/sim"
	"flextoe/internal/testbed"
)

// connBudgetBytes is the per-connection NIC state gate: 2x the Table 5
// budget including the OOO and SACK extension rows (109 + 32 + 32 wire
// bytes; see doc.go "Connection state budget").
const connBudgetBytes = 2 * (109 + 32 + 32)

// TestMillionConnStateBudget installs an idle fleet at the paper's target
// scale and gates the per-connection footprint of the slab, flow index,
// and free ring against the Table 5-derived budget.
func TestMillionConnStateBudget(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	tb := testbed.New(netsim.SwitchConfig{Seed: 1},
		testbed.MachineSpec{Name: "server", Kind: testbed.FlexTOE, Seed: 1})
	srv := tb.M("server")
	installIdleFleet(srv, n)
	if got := srv.TOE.NumConnections(); got != n {
		t.Fatalf("installed %d connections, tracking %d", n, got)
	}
	perConn := float64(srv.TOE.ConnStateBytes()) / float64(n)
	if perConn > connBudgetBytes {
		t.Errorf("%.1f B/conn at n=%d, budget %d", perConn, n, connBudgetBytes)
	}
	// The fleet must stay addressable: the control plane tracks every one.
	if got := srv.Ctrl.NumTracked(); got != n {
		t.Errorf("control plane tracks %d of %d", got, n)
	}
}

// trafficEvents runs a fixed RPC workload on top of idleConns idle
// connections and returns the events executed during the traffic phase
// plus the requests completed.
func trafficEvents(t *testing.T, idleConns int) (events, completed uint64) {
	t.Helper()
	tb := testbed.New(netsim.SwitchConfig{Seed: 7},
		testbed.MachineSpec{Name: "server", Kind: testbed.FlexTOE, Cores: 8, Seed: 7},
		testbed.MachineSpec{Name: "client", Kind: testbed.FlexTOE, Cores: 8, Seed: 8},
	)
	srv := tb.M("server")
	installIdleFleet(srv, idleConns)
	rpc := &apps.RPCServer{ReqSize: 64}
	rpc.Serve(srv.Stack, 7777)
	cl := &apps.ClosedLoopClient{ReqSize: 64}
	cl.Start(tb.M("client").Stack, tb.Addr("server", 7777), 64)
	p0 := tb.Eng.Processed()
	tb.Run(3 * sim.Millisecond)
	return tb.Eng.Processed() - p0, cl.Completed
}

// TestTimerCostIdleIndependence is the perf gate for the wheel-armed
// timers: the event cost of a fixed active workload must not grow with
// the number of idle connections sharing the stack. Under the old 500 µs
// full-table scans, 100x more idle connections meant 100x more timer
// work per tick.
func TestTimerCostIdleIndependence(t *testing.T) {
	evSmall, doneSmall := trafficEvents(t, 1_000)
	evLarge, doneLarge := trafficEvents(t, 100_000)
	if doneSmall == 0 || doneLarge == 0 {
		t.Fatalf("no traffic completed: %d / %d", doneSmall, doneLarge)
	}
	if doneLarge != doneSmall {
		t.Errorf("active goodput changed with idle fleet: %d vs %d requests", doneSmall, doneLarge)
	}
	ratio := float64(evLarge) / float64(evSmall)
	if ratio > 1.15 {
		t.Errorf("100x idle connections cost %.3fx events (%d -> %d), want <= 1.15x",
			ratio, evSmall, evLarge)
	}
}

// churnResult captures everything a churn run can observably produce.
type churnResult struct {
	dials       int
	established uint64
	processed   uint64
	midBytes    int
	endBytes    int
	endTracked  int
}

// flexChurn runs dial/close churn waves against a FlexTOE pair, sampling
// connection-table bytes halfway and after the post-close drain.
func flexChurn(seed uint64, waves int) churnResult {
	tb := testbed.New(netsim.SwitchConfig{Seed: seed},
		testbed.MachineSpec{Name: "server", Kind: testbed.FlexTOE, BufSize: 4096, Seed: seed},
		testbed.MachineSpec{Name: "client", Kind: testbed.FlexTOE, BufSize: 4096, Seed: seed + 1},
	)
	srv := tb.M("server")
	srv.Stack.Listen(9090, func(sock api.Socket) { sock.Close() })
	var r churnResult
	r.dials = churnLoop(tb, "client", "server", 9090, waves/2, 16, sim.Millisecond)
	tb.Run(tb.Eng.Now() + 30*sim.Millisecond)
	r.midBytes = srv.TOE.ConnStateBytes()
	r.dials += churnLoop(tb, "client", "server", 9090, waves-waves/2, 16, sim.Millisecond)
	tb.Run(tb.Eng.Now() + 30*sim.Millisecond)
	r.established = srv.Ctrl.Established
	r.processed = tb.Eng.Processed()
	r.endBytes = srv.TOE.ConnStateBytes()
	r.endTracked = srv.Ctrl.NumTracked() + tb.M("client").Ctrl.NumTracked()
	return r
}

// TestChurnSteadyStateMemory gates slot reclamation on the FlexTOE
// control plane: connection-table memory must plateau — the second half
// of the churn reuses the slots the first half freed — and every
// connection must be reclaimed once the lingers drain.
func TestChurnSteadyStateMemory(t *testing.T) {
	r := flexChurn(40, 20)
	if r.established != uint64(r.dials) {
		t.Errorf("established %d of %d dials", r.established, r.dials)
	}
	if r.endTracked != 0 {
		t.Errorf("%d connections still tracked after drain", r.endTracked)
	}
	if r.endBytes != r.midBytes {
		t.Errorf("connection state grew across churn: %d -> %d bytes (slots not reused)",
			r.midBytes, r.endBytes)
	}
}

// TestChurnSteadyStateMemoryBaseline gates the same reclamation contract
// on the slab-backed baseline stacks.
func TestChurnSteadyStateMemoryBaseline(t *testing.T) {
	tb := testbed.New(netsim.SwitchConfig{Seed: 50},
		testbed.MachineSpec{Name: "server", Kind: testbed.TAS, BufSize: 4096, Seed: 50},
		testbed.MachineSpec{Name: "client", Kind: testbed.TAS, BufSize: 4096, Seed: 51},
	)
	srv := tb.M("server")
	srv.Stack.Listen(9090, func(sock api.Socket) { sock.Close() })
	dials := churnLoop(tb, "client", "server", 9090, 10, 16, sim.Millisecond)
	tb.Run(tb.Eng.Now() + 30*sim.Millisecond)
	midBytes := srv.Base.ConnTableBytes()
	dials += churnLoop(tb, "client", "server", 9090, 10, 16, sim.Millisecond)
	tb.Run(tb.Eng.Now() + 30*sim.Millisecond)
	if dials != 320 {
		t.Fatalf("dialed %d, want 320", dials)
	}
	if n := srv.Base.NumConns() + tb.M("client").Base.NumConns(); n != 0 {
		t.Errorf("%d baseline connections still live after drain", n)
	}
	if end := srv.Base.ConnTableBytes(); end != midBytes {
		t.Errorf("baseline connection table grew across churn: %d -> %d bytes", midBytes, end)
	}
}

// socketRingBudgetBytes is the per-connection host-memory gate for a
// connection that has moved one small request each way: both ends, all
// four payload rings on their 4 KB start (16 KB) plus socket, connection
// and timer objects. Eagerly allocated 64 KB rings cost 256 KB.
const socketRingBudgetBytes = 32 << 10

// TestSocketRingMemoryBudget establishes a fleet on the default 64 KB
// buffers, echoes one 256 B request on every connection and gates the
// live heap per connection: a socket ring costs what it holds, not what
// it could hold (doc.go "Zero-copy views").
func TestSocketRingMemoryBudget(t *testing.T) {
	const conns, reqBytes = 512, 256
	for _, kind := range []testbed.StackKind{testbed.Linux, testbed.FlexTOE} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)

		tb := testbed.New(netsim.SwitchConfig{Seed: 70},
			testbed.MachineSpec{Name: "server", Kind: kind, Cores: 2, Seed: 70},
			testbed.MachineSpec{Name: "client", Kind: kind, Cores: 2, Seed: 71},
		)
		tb.M("server").Stack.Listen(9091, func(sock api.Socket) {
			sock.OnReadable(func() {
				a, b := sock.Peek()
				n := api.ViewLen(a, b)
				ra, rb := sock.Reserve(n)
				api.ViewCopyIn(ra, rb, 0, a)
				api.ViewCopyIn(ra, rb, len(a), b)
				sock.Commit(n)
				sock.Consume(n)
			})
		})
		echoed := 0
		socks := make([]api.Socket, 0, conns) // the fleet stays open while the heap is read
		for len(socks) < conns {
			// Waves stay inside the FlexTOE listen backlog.
			for i := 0; i < 64; i++ {
				tb.M("client").Stack.Dial(tb.Addr("server", 9091), func(sock api.Socket) {
					socks = append(socks, sock)
					got := 0
					sock.OnReadable(func() {
						n := sock.Readable()
						sock.Consume(n)
						if got += n; got == reqBytes {
							echoed++
						}
					})
					sock.Send(make([]byte, reqBytes))
				})
			}
			tb.Run(tb.Eng.Now() + 2*sim.Millisecond)
		}
		tb.Run(tb.Eng.Now() + 10*sim.Millisecond)
		if echoed != conns {
			t.Fatalf("%s: %d of %d connections completed their echo", kind, echoed, conns)
		}

		runtime.GC()
		runtime.ReadMemStats(&after)
		perConn := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / conns
		t.Logf("%s: %d B of live heap per connection (both ends), budget %d", kind, perConn, socketRingBudgetBytes)
		if perConn > socketRingBudgetBytes {
			t.Errorf("%s: %d B of live heap per connection, budget %d: socket rings are not sized by bytes in flight",
				kind, perConn, socketRingBudgetBytes)
		}
		runtime.KeepAlive(tb)
		runtime.KeepAlive(socks)
	}
}

// TestChurnDeterminism is the determinism gate for slot reuse: the
// FIFO free list and establishment-order scan list must make a churn
// workload — including every reclaimed and reused slot — bit-identical
// across runs of the same seed.
func TestChurnDeterminism(t *testing.T) {
	a := flexChurn(60, 12)
	b := flexChurn(60, 12)
	if a != b {
		t.Errorf("same-seed churn diverged:\n  run A %+v\n  run B %+v", a, b)
	}
	c := flexChurn(61, 12)
	if c.processed == a.processed {
		t.Logf("different seeds produced identical event counts (%d); suspicious but not fatal", a.processed)
	}
}

// TestFig9ConnQuick smoke-runs the full Figure 9 connection-scale runner
// at Quick scale and checks each table's headline invariants.
func TestFig9ConnQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runner smoke is not short")
	}
	tables := Fig9Conn(Quick)
	if len(tables) != 3 {
		t.Fatalf("Fig9Conn returned %d tables, want 3", len(tables))
	}
	sweep, zipf, storm := tables[0], tables[1], tables[2]
	if len(sweep.Rows) != 3 {
		t.Fatalf("sweep has %d rows, want 3", len(sweep.Rows))
	}
	for _, row := range sweep.Rows {
		if row[3] == "0.00" {
			t.Errorf("sweep row %v: no active goodput", row)
		}
	}
	if len(zipf.Rows) == 0 || zipf.Rows[0][2] == "0.00" {
		t.Errorf("zipf table empty or idle: %v", zipf.Rows)
	}
	if len(storm.Rows) != 2 {
		t.Fatalf("storm has %d rows, want 2", len(storm.Rows))
	}
	if storm.Rows[0][3] == "0" {
		t.Errorf("SYN storm dropped nothing: %v", storm.Rows[0])
	}
	if storm.Rows[1][6] != "0" {
		t.Errorf("churn left live connections: %v", storm.Rows[1])
	}
	for _, tb := range tables {
		_ = tb.Format()
	}
}
