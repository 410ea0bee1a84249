// FlexTOE reproduction: a flexible TCP offload engine with fine-grained
// parallelism (NSDI 2022), rebuilt as a deterministic simulation in Go.
//
// The sections below state the architecture's contracts; see
// cmd/flexbench for the evaluation harness, examples/ for runnable
// applications and examples/scenarios/README.md for declarative specs.
// bench_test.go in this directory regenerates every table and figure of
// the paper's evaluation as Go benchmarks.
//
// # Zero-allocation hot path: pooling ownership rules
//
// The simulated data path is allocation-free in steady state, exactly as
// FlexTOE's real data path never allocates (§3.1). Four object classes
// are pooled, each with a single ownership rule:
//
//   - Events (internal/sim): the engine is two structures, both timing
//     wheels. Time is cut into 33.5 us blocks; a near wheel of 65.5 ns
//     buckets always holds the clock's block and the next, sliding a
//     block at a time with the clock, so an event due soon lands in a
//     bucket wherever in its block the clock stands. A bucket is always
//     in execution order, (at, dkey, seq): an insert appends and shifts
//     the event back a few slots to its place, so running the next event
//     is one lookup and a pop from the bucket's head; a drained bucket's
//     storage goes to the next bucket to fill. A lapped far wheel keeps
//     an unordered list for each block modulo a ring of 2048 (68.7 ms a
//     lap), so it holds any distance: link backlogs and RTOs in the
//     first lap, backed-off RTOs and end markers beyond it. Entering a
//     block moves the next block's events from its list into the near
//     wheel through that same ordered insert and leaves later laps
//     listed; with the near wheel empty, the window jumps to the earliest
//     block that holds an event. Order is decided where an event arrives,
//     by the key and the seq it was scheduled with, so whether it crossed
//     the far wheel leaves no trace in it, and every event scheduled has
//     run or is pending (Engine.Balance, checked at every scenario's
//     readout). There is one scheduling API: every event and
//     task completion (AtCall/AfterCall/ImmediatelyCall/EveryCall on a
//     component's sim.Owner or, unowned, on sim.Unowned or the Engine's
//     own AfterCall;
//     Resource.AcquireCall, Core/FPC.SubmitStepCall and SubmitCall,
//     DMAEngine.IssueCall)
//     carries a long-lived func(any) plus a per-event arg, so no closure
//     is allocated; sim.RunFunc is the one adapter for firing an
//     application-owned func(). An arg must never be a pooled object that
//     its owner could recycle before the event fires: the scheduler of
//     the event must hold (or transitively guarantee) a reference until
//     it runs. In particular, ImmediatelyCall callbacks must not retain
//     pooled packets or segItems past their release point.
//
//   - segItems (internal/core): pooled per TOE and reference-counted.
//     allocSeg hands out one reference; nbiSubmit adds one for the NBI
//     reorder buffer (which may release the item synchronously or long
//     after the submitting stage moved on); putSeg drops one. The holder
//     of the last reference recycles the item. releaseSeg is the only
//     mid-pipeline drop point; it also releases the item's packet.
//
//   - Packets (internal/packet) and Frames (internal/netsim): a packet
//     has exactly one owner at a time. Every pooled packet and frame
//     comes from its engine's pool (packet.PoolOf, netsim.FramesOf);
//     there is no process-global pool, so the engine counts every loan
//     (below). Building one (Pool.Get; a data segment's payload is a
//     view of the sender's committed transmit bytes, SetPayloadView, and
//     only a copy — a window straddling the ring's end, a duplicate of a
//     copy — borrows a buffer from the shm.Slab via GrowPayload until
//     Release) and sending it transfers ownership hop by hop through
//     the fabric; whoever terminates its journey calls packet.Release
//     exactly once — the consuming stack
//     (FlexTOE pipeline after the payload DMA lands; the baseline stack
//     at the end of segWorkHandle; the TOE's control-delivery event after
//     ControlRx returns), or the drop point (switch loss/WRED/flood,
//     unconnected interface). Frames return to their pool at the
//     receiving MAC (netsim.ReleaseFrame) or with the dropped packet.
//     Senders must never retain or re-send a transmitted packet —
//     retransmissions rebuild from the payload buffer, matching the
//     paper's one-shot design. Release on a non-pooled &packet.Packet{}
//     literal is a no-op, so consumers release unconditionally and
//     control-plane/application code may keep using plain literals. The
//     XDP hook builds no literal: a frame a program rewrote (an XDP_TX
//     verdict, or a Pass that changed bytes) is rebuilt in a packet from
//     the pool, its headers decoded from the program's bytes and its
//     payload copied into a slab buffer (GrowPayload), because the hook's
//     work buffer is recycled; examples/splicing's TestSpliceTXAllocBudget
//     holds it to one pool loan and at most 0.01 allocations per frame.
//
//     A packet also carries its flow's CRC-32, forward and reversed
//     (Packet.FlowHash/RevFlowHash), because the pre-processor hashes a
//     segment once and every later stage reuses the result (§3.1.3,
//     §4.1): ECMP picks, the taps' flow tables, the flow-group island,
//     the pre-lookup cache key and the connection-table probe all read
//     it, so a data-path frame costs no CRC at all. The memo is a cache,
//     never a source of truth. It is revalidated on every read against
//     the packet's current 4-tuple (a 12-byte compare), so a header
//     rewrite — XDP, splicing, DecodeInto into a reused packet, a test
//     poking TCP.SrcPort — recomputes instead of serving a stale value.
//     It is seeded (SeedFlowHashes) only by the builder of the headers,
//     after writing them: a connection stamps the pair it computed at
//     establishment (core.Conn at AddConnection, baseline's bconn at
//     newConn); control frames and hand-built packets compute on first
//     read. And it is reset by Release with everything else. A wrong
//     seed would mis-steer silently, so -tags flexdebug recomputes every
//     hit and every seed and panics on a mismatch.
//
// The budget is enforced at runtime under plain `go test`
// (testing.AllocsPerRun): at most 0.01 heap allocations per simulated
// data segment (TestPipelineSteadyStateAllocBudget, internal/core; 0.000
// measured) and at most 0.05 per RPC request-response on all four stacks,
// lossless and at 1 % loss, and on FlexTOE with DCTCP, TIMELY and across a
// fabric (TestAppSteadyStateAllocBudget, internal/apps). These gates
// enforce the no-closure-per-event rule: a closure built on a per-segment
// or congestion-control-tick path costs at least 0.2 allocations per
// request and fails them; one built once per RTO interval (~0.01) does
// not. Containers keep their arrays in steady state: the flow scheduler's
// wheel truncates a drained slot rather than dropping it, so a paced
// flow's next Submit there reuses the array. BenchmarkPipelineSegment
// reports the live number plus wall-clock ns per simulated segment.
//
// The ownership rule is enforced at runtime, by counting. Every pool
// counts what it lends — a shm.Freelist (packet shells, frames, segItems,
// FPC task records, DMA transactions, timer carriers, baseline segment
// work) counts its Gets and Puts, the payload slab its buffers, a NIC
// shm.Pool its segment buffers and descriptors — and registers on its
// engine where it is built (sim.Engine.Lends). Loans are what is in
// flight, so a quiet engine owes nothing: once the workload stops, its
// last segments land and its idle timers disarm, every pool has had back
// all it lent, and sim.Engine.Unreturned names any that has not — out by
// a leak, over by a double release. TestQuiescentRunReturnsEveryLoan
// (internal/apps) checks it after every stack row of the allocation gate;
// so do the socket conformance suite (internal/api/apitest) after each
// of its runs, the churn, lossy-churn and port-wrap gates after their
// drains, and core's bulk, XDP-drop and run-to-completion transfers. A
// connection that never finishes shows up there too, through the timer
// carrier it holds. Building with -tags flexdebug adds a panic at the
// double release itself and payload poisoning on top (see the flexdebug
// paragraph below).
//
// # Connection state budget: million-connection tables and timers
//
// FlexTOE's scalability argument (§4.3, Table 5, Fig. 9) is that
// per-connection state is small and per-connection cost is paid only by
// active connections. The reproduction pins both halves as contracts
// (PR 8):
//
//   - Slab connection tables. Connections live in fixed 256-entry value
//     blocks ([]Conn in core, slot pointers in baseline), addressed by
//     slot id — pointers into a block stay valid forever, and there is no
//     per-connection heap object or map entry. Flows resolve through
//     internal/conntab: an open-addressed, linear-probed uint32 index
//     over packet.Flow.Hash() (the same CRC-32 the pre-processor
//     computes) with backward-shift deletion, so lookups are 0
//     allocations and deletions leave no tombstones. Freed slots are
//     reused FIFO, oldest-freed first: a just-torn-down id stays
//     quarantined behind the whole free ring while straggling in-flight
//     work drains. No list of connections is kept or scanned: what is
//     deterministic is the slot FIFO and the establishment-ordered
//     readout (flowmon.Analyzer.order) — the same workload is bit-identical
//     however many lived and died before it (TestChurnDeterminism).
//
//   - Wheel-armed timers. Per-connection deadlines (RTO, persist probes,
//     FIN teardown, CC polls) are individual sim.Engine events armed only
//     while the connection can make progress: the data path raises a
//     timer kick on the transition into "needs service" (bytes in
//     flight, FIN unacked, zero window with staged data), deduped by a
//     per-connection hint, and the control plane arms a pooled timer
//     carrier (getTimer/putTimer, a counted pool; a baseline
//     connection is its own). A fired carrier re-arms while service is
//     still needed and is recycled the moment it is not; the engine has no
//     cancellation, so disarm is lazy — an epoch check (liveness check in
//     the baselines) kills stale events. Consequence, and the Fig. 9 gate:
//     idle connections schedule nothing, and timer cost scales with
//     activations, not fleet size (TestTimerCostIdleIndependence: the same
//     active workload costs the same events over 10^3 and 10^5 idle ones).
//
//   - Accounting and the budget. Table 5 totals 109 B of wire-protocol
//     state per connection, +32 B OOO extension, +32 B SACK scoreboard =
//     173 B. The Go Conn struct carries the same fields plus simulation
//     bookkeeping in 320 B; ConnStateBytes() charges slot blocks, the
//     flow index, and the free ring — NIC connection state — and
//     excludes host payload buffers, which are an application sizing
//     choice (ctrl.Plane.InstallEstablished therefore accepts shared
//     buffers for idle fleets; data moves on one sharer at a time, and
//     the next starts only once every byte of the last is acknowledged,
//     because a sharer's stale frames read the next sharer's bytes and
//     only its own receiver's trim makes that harmless). The CI gate
//     (TestMillionConnStateBudget) bounds the whole thing at 2x Table 5 —
//     346 B/conn at 10^6 established connections (~330 B measured).
//     Teardown returns a slot after a linger of four minimum RTOs (8 ms
//     on the FlexTOE control plane, where the minimum RTO is a constant);
//     churned fleets plateau (TestChurnSteadyStateMemory) instead of
//     growing.
//
//   - Listen-path hardening. Half-open connections per listener are
//     bounded (ListenBacklog; control-plane default 128, baseline default
//     unbounded for storm experiments, both overridable per
//     testbed.MachineSpec), with an optional accepted-SYN rate limit on
//     the FlexTOE control plane. Overflow drops are silent — no RST, the
//     peer sees SYN loss — and counted (SYNDrops, BacklogOverflows,
//     AcceptRateDrops), and every dial is either fully established or
//     counted dropped, uniformly across personalities (apitest
//     AcceptStormBacklog).
//
//   - The baseline's step. A baseline connection is its protocol state
//     (sequence and window fields, recovery, reassembly, FIN and
//     handshake flags, the two payload rings) and a carrier (the stack,
//     the cores, the slot, the socket, the pump). The state's methods are
//     one step over a cost-paid segment, an application commit, consume
//     or close, a transmit slot or a timer firing. It calls one narrow
//     interface, in the order the engine must see: emit, ack, pump, arm,
//     notify, reclaim. The carrier implements it on the cost model, a
//     recorder in tests, so the baseline is checked with no engine, as
//     tcpseg is.
//
//   - The control plane's step. FlexTOE's connection lifecycle splits the
//     same way (internal/ctrl/step.go): a slot's ccState and a half-open
//     pendingConn take a data-path kick, an RTO/persist/linger or CC-poll
//     firing, a dial or a handshake input, with the NIC state they read
//     as one declared view (SND.UNA, in-flight and staged bytes, the
//     peer's window, the FIN flags, the CC counters), and call retransmit,
//     probe, reclaim, arm, setCwnd, setRate, sendControl and establish.
//     Plane carries the maps, the slab and the pooled timers.
//
// The allocation half is enforced by TestConnTableAllocBudget
// (internal/core): 0 allocations per flow lookup, 0 per warm
// establish/teardown cycle, amortized < 0.02 per cold establish. The
// scaling sweep itself is cmd/flexbench fig9conn.
//
// # Datacenter fabric: topology model and ECMP hashing contract
//
// internal/fabric composes netsim switches into a two-tier leaf–spine
// Clos: each leaf is a rack's top-of-rack switch, every leaf connects to
// every spine, and hosts attach statically to one rack
// (testbed.MachineSpec.Rack → fabric.AttachHost). Each tier carries its
// own netsim.SwitchConfig, so ECN thresholds, WRED and queue caps are
// per-tier policy; every switch port keeps ECN-mark, drop and peak-depth
// counters.
//
// ECMP contract: a leaf that has not learned a destination MAC (leaves
// learn only their local rack) forwards onto uplink index
// packet.Flow.Hash() mod spines — the same CRC-32 the FlexTOE
// pre-processor computes on the NFP lookup engine. Every segment of one
// flow direction therefore takes one spine (per-flow ordering holds
// across the fabric), the reverse direction hashes independently, and
// path choice is a pure function of the 4-tuple: seeded reruns replay
// identical paths bit for bit.
//
// Pooled-Frame ownership extends across multi-hop forwarding unchanged:
// host NIC → leaf → spine → leaf → host NIC hands the same *Frame (and
// its packet) from hop to hop; exactly one party terminates the journey —
// the receiving stack, or whichever drop point (loss injection, tail
// drop, WRED, unknown-MAC flood, the ECMP loop guard) ends it — and that
// party releases frame and packet exactly once. The fabric adds hops,
// never owners.
//
// internal/apps' two datacenter generators (flows.go) drive the fabric
// (or the single-switch testbed) through api.Stack only, like every other
// application: an open-loop Poisson generator of fixed-size flows and
// barrier-synchronized N-to-1 incast groups. Figure 17 (cmd/flexbench
// fig17) sweeps incast fan-in × {CCNone, CCDCTCP, CCTimely} and
// tabulates ECMP spine balance.
//
// # Zero-copy socket views: ownership and aliasing contract
//
// api.Socket's data path is the four view calls and nothing else —
// Peek/Consume on receive, Reserve/Commit on transmit — mirroring
// libTOE's payload-buffer model (§3, Fig. 2): the application reads
// received bytes and stages transmit bytes in place in the per-socket
// payload ring, and only descriptors cross the host/NIC boundary. There
// is no copying send/recv on any stack; an application that wants a copy
// makes it through the views (api.ViewCopyIn/ViewCopyOut; the tests'
// one copying pair is apitest.Write/Read). The contract:
//
//   - Views are windows into the socket's payload ring, never copies.
//     Peek returns every readable byte as up to two slices (the ring may
//     wrap); Reserve returns up to n bytes of free transmit ring at the
//     append position. A Reserve view may be read and written in place;
//     a Peek view is read-only.
//
//   - A Peek view is invalidated by the next Consume, a Reserve view by
//     the next Commit. Views must never be retained across those calls,
//     across event callbacks, or into deferred work (a SubmitCall task,
//     an engine event): by the time deferred work runs, the window may
//     have been recycled for new data. Anything needed later is copied
//     out first (the KV server copies only ring-wrap-straddling frames,
//     through a reused scratch buffer).
//
//   - Repeated Peek/Reserve without an intervening Consume/Commit return
//     stable views of the same window: the same bytes, but only the
//     newest pair of slices may be used. A socket ring costs what it
//     holds (shm.PayloadBuf): it starts at the smallest power of two of
//     at least 512 B that holds its first bytes and moves to the next
//     power of two that holds the bytes in flight each time they outgrow
//     it, up to full size. A Reserve view is
//     therefore also invalidated by the next Reserve on the same socket,
//     and a Peek view by the next arriving segment, either of which may
//     move the ring (its bytes move with it). Size, TxSpace and the
//     advertised window are logical and never see the physical ring.
//
//   - Commit publishes the next n ring bytes as they are; an application
//     whose payload content matters stages it via Reserve first, one
//     that pads (fixed-size RPC benchmarks, bulk streams) may commit
//     without staging.
//
//   - The payload lives once, in the host buffer. A data segment on the
//     wire carries a view of its committed transmit bytes
//     (shm.PayloadBuf.View into packet.Packet.SetPayloadView, on FlexTOE
//     and the baselines alike), not a copy: the NIC never buffers
//     segments (§3). A window straddling the physical ring's end is
//     copied into a slab buffer; a switch duplicate shares the view. A
//     ring that holds only zeros has no storage, on both sides: a
//     transmit ring nothing was written to (padding) lends windows of
//     one shared zero array (shm.MaxRingBytes, untouched and so never
//     resident), those windows written into a receive ring without
//     storage copy nothing, and Peek of such a ring lends the zero array
//     too, so a content-ignored stream holds no payload memory at either
//     end. Its first real bytes give a ring storage as before, holding
//     the zeros written ahead of them. Writing through a Peek view breaks
//     the contract; under -tags flexdebug the next Consume panics on a
//     zero window written through (TestStaleZeroViewsTrip). The
//     view is safe because committed bytes are immutable until
//     acknowledged and a move of the ring leaves the old ring to its
//     views. A frame that outlives the acknowledgment of its bytes — a
//     switch duplicate, a reordered or a retransmitted original — may
//     read bytes the sender has written since, but every acknowledged
//     byte lies below the receiver's next expected sequence number, and
//     both receivers trim below it before they write (the FlexTOE NBI
//     reorder buffer also holds any ACK covering a segment behind that
//     segment's payload DMA). So a stale view is only ever trimmed, never
//     delivered (TestPayloadIntegrityUnderStaleViews streams a pattern
//     through a duplicating, reordering, lossy switch on FlexTOE and
//     Linux, finds stale frames, and checks every rewritten byte lies
//     below the delivered point).
//
// Composition with the pooling rules above: the RX payload ring is
// written by the data-path (DMA from pooled packets) strictly ahead of
// the bytes Peek exposes, and the TX ring is read by the data-path
// (segment build from pooled packets, retransmissions included) only
// below the committed head — so application views and data-path DMA
// never alias the same region while both are live. Retransmissions
// rebuild from the TX payload ring, which is why committed bytes must
// stay untouched until acknowledged (DescTxFree) — the same one-shot
// rule packets follow. Cost model: libTOE charges descriptor/doorbell
// cycles and no per-byte copy cost (Table 1's split of what offload can
// and cannot eliminate); the baseline personalities
// implement the same view semantics for binary compatibility but keep
// charging the kernel copy, which their architecture cannot avoid.
//
// The app-layer budget is enforced in CI by TestAppSteadyStateAllocBudget
// (internal/apps): at most 0.05 heap allocations per steady-state RPC
// request-response end to end, on every stack; the cross-personality semantics
// (including view aliasing rules) are pinned by the conformance suite in
// internal/api/apitest. The no-retention rule is enforced at runtime
// under -tags flexdebug: a Consume fills the receive bytes it releases
// with poison, every Peek/Reserve view is stamped with its ring's
// generation, which the next Consume, Commit or move of the ring ends,
// and the api view helpers panic on a view whose generation has ended
// (TestStaleViewsTrip; a Peek view of the shared zero array is stamped
// per ring too, TestStaleZeroViewsTrip); a wire view released from a
// packet without
// SetPayloadView panics too (TestWireViewOnlyThroughSetPayloadView).
//
// # One job, one engine
//
// A testbed — every switch, every machine, every application — is one
// sim.Engine run by one goroutine. Nothing inside a simulation is
// parallel, so no state inside it needs a lock. Parallelism is across
// simulations: flexbench -cores runs a figure's independent sweep cells
// on a worker pool (experiments.cells, the one sweep runner every figure
// uses: cell i's result lands in slot i), and `flexbench serve` runs
// independent jobs on its own pool. Each cell and each job builds its own
// testbed on its own engine, and everything pooled on the hot path hangs
// off that engine (Engine.Local — packet pools, frame pools; TOE work
// rings and segment freelists per stack), so concurrent simulations share
// no mutable state. There is no pool outside an engine, not even for a
// test or an example: packet.PoolOf and netsim.FramesOf are the only
// constructors, and each registers what it builds with Engine.Lends.
// The gates are TestCellsMatchSerial (internal/experiments: worker pools
// of 2 and 4 reproduce the serial loop slot for slot) and the scenario
// service's determinism suite, both
// under `go test -race ./...`; link ids and owner ranks come from the
// engine too (TestLinkIDsArePerEngine, TestConcurrentJobsMatchSolo).
// netsim.Connect refuses to join interfaces of two engines: a delivery is
// scheduled on the sender's engine, so such a link would run the receiver
// on the wrong clock.
//
// Same-instant order. What runs first when two events share a picosecond
// is declared by the model, never decided by which scheduling call
// happened to come first. Events run in (time, key, sequence) order, and
// the key (event.dkey) says whose event it is:
//
//	0                  unowned          first at an instant, FIFO
//	rank<<8 | sub      a component's    then by rank, then by sub-key
//	link<<32 | txSeq   a frame delivery last, by link, unique per frame
//
// Every engine-resident component — an nfp.FPC, a host.Core, a
// sim.Resource (the PCIe link, a copy engine, the baseline's lock and
// ASIC), a netsim.Switch, a core.TOE, a ctrl.Plane, a baseline.Stack —
// takes a sim.Owner where it is constructed (Engine.NewOwner) and
// schedules through it. Ranks, and link ids with them, are handed out in
// construction order, the same discipline as establishment-order
// connection scans: a testbed built the same way orders the same way. An
// owner that schedules for several contexts of its own gives each a
// sub-key: an FPC's events carry the hardware thread's index
// (Owner.Sub), so the wake-ups of two threads that fall on one instant
// run in thread order whichever step was issued first. The sequence
// number only ever decides between two events of one owner and one
// sub-context, which run FIFO.
//
// A component's deferred same-instant work — the TOE's transmit pump and
// its hand-off to the control plane — uses an owner taken after the
// component's parts are built, so it runs behind the completions its own
// FPCs and DMA engine have at that instant, sees all of their output and
// is armed once for all of them; the control plane, built on the TOE,
// ranks behind both.
//
// Unowned scheduling (Engine.AfterCall, sim.Unowned) is for what stands
// outside the modelled machines: applications, workload generators,
// experiment traffic sources, tests and the benchmark drivers. Code that
// schedules unowned from inside a callback says so through one named
// adapter, sim.Unowned(eng, why), an Owner with key 0; a periodic source
// arms only through an Owner (there is no Engine.EveryCall). Under -tags
// flexdebug the engine's own AfterCall panics while an owned event or a
// delivery runs (TestOwnedEventsScheduleThroughOwners).
//
// The rule is what lets the engine be optimised without moving a table:
// an event whose only act is to schedule another can be removed, and two
// wake-ups fused into one, because no other event's place depended on
// their sequence numbers — since the rule went in, a change to the number
// of events is a speed-only change. The first two came with it and left
// every result payload byte-identical: an nfp.FPC wakes a thread once per
// step, at issueFree + stall, where it used to run a retirement event
// that only scheduled the stall's expiry (TestFPCFusedMatchesTwoEventOracle
// keeps the two-event core as its oracle), and an idle host.Core starts a
// submitted task on the spot, without a kick event at the same instant.
// The third is the switch crossbar: a netsim.Switch books a forwarded
// frame on its egress serializer at forward time, from the egress instant
// on, where a crossbar event used to call Send 600 ns later. That event
// was the switch's own and the only kind it scheduled, so removing it
// takes an event out of the switch's own FIFO and moves no tie; the
// port's counters still change at the egress instant
// (TestSwitchFoldMatchesEventPath and FuzzSwitchFold hold it against the
// event path). The fourth is the transmit pump's empty run, and it
// re-declared one same-instant order: a core.TOE's pump is armed when its
// flow scheduler holds a flow, ready or on the wheel, and a kick on an
// empty carousel does nothing. The flow that brings work arrives through
// a submit, which kicks again, so the pump takes its place among the
// TOE's own events from that submit, not from the earlier kick; the
// pipeline and the run-to-completion ablation follow the same rule. Where
// a bare kick, a control-plane hand-off and a submit share an instant,
// the hand-off now runs ahead of the pump (TestKickOnEmptyCarousel). No
// table, payload or model metric moved with it.
// One cut moved tables on purpose, because it changes what the pipeline
// carries: the flow scheduler debits what it schedules. A connection
// holds the bytes of its TX items scheduled whose protocol step has not
// run, each item records the bytes it reserved, and the pump, the ACK
// path, host control and the control plane's window poke submit a flow
// only for sendable bytes past that reservation (a FIN on an emptied
// transmit buffer counts its sequence slot as sendable, since no
// retransmit item carries it); the protocol step releases it, sent or
// dropped, and hands back what a shorter segment left. A scheduler that read only the
// protocol state handed one window to the pipeline up to 64 times and
// the protocol stage dropped the surplus, each drop a pre task, a
// sequencer ticket and a state fetch (TestTXOverScheduling,
// TestTXDebitConserved). TestEventsPerSegmentBudget keeps the count from
// creeping back (<= 21.2 events per received segment on kv_flextoe,
// <= 17.5 on incast_fabric). TestOwnerOrder pins the
// rule under every permutation of the call order,
// TestWheelMatchesHeapOrder the wheel against the reference heap,
// TestEventLayout the 48-byte event: the key rides in the field the
// delivery key already had, and the compare is still three fields.
//
// # Passive flow analysis: the tap observation contract
//
// internal/flowmon is a streaming per-flow TCP analyzer that attaches to
// any packet vantage point — a netsim.Iface Tx/RxTap, the core.TOE
// PacketTap, or a pcap capture (FeedPCAP) — and reconstructs what the
// stacks know from nothing but the wire: RTT (timestamp echoes plus
// SEQ/ACK probes, Karn-invalidated across retransmission), retransmits
// split go-back-N vs selective by SACK-scoreboard inference over the
// SendNext high-water model, reassembly accept/drop decisions by exact
// re-execution of the tcpseg interval machinery, dupack runs under the
// observed stack's own counting rule, zero-window stalls, ECN marks, and
// acknowledged-byte goodput. The contract has three clauses:
//
//   - Observation only, no ownership. A tap callback receives the pooled
//     *packet.Packet mid-flight: the analyzer reads it synchronously and
//     retains nothing — no packet, no payload slice, no frame — so the
//     pooling ownership rules above are untouched (the tap adds a reader,
//     never an owner). netsim taps charge zero simulated cost and
//     schedule nothing: attaching an analyzer leaves the simulation
//     bit-identical down to per-engine event counts
//     (TestAnalyzerTapZeroCost, xval.TestTapsDoNotPerturbSimulation). The
//     TOE PacketTap charges PacketTapCost cycles, modeling a real on-NIC
//     mirror. Observation is one-pass: a packet is seen once, at
//     NIC-delivery time; the analyzer never peeks at stack state.
//
//   - Zero-alloc streaming. Flow records live in fixed-size slab blocks
//     addressed through the same conntab index the data path uses;
//     RTT probes, SACK scoreboards and OOO interval sets are fixed arrays
//     inside it (TestFlowStateBytes). Steady-state observation allocates
//     nothing; the CI gate is TestFlowmonAllocBudget (≤ 2 allocations per
//     packet under AllocsPerRun, covering slab growth). Reports are
//     deterministic by construction — establishment-ordered flow scans,
//     byte-identical Format across reruns, and Fleet totals that do not
//     depend on how many analyzers the taps were split over
//     (TestFleetAnalyzerCountInvariance).
//
//   - Asserted inference tolerances. Cross-validation against stack
//     ground truth (internal/flowmon/xval) is part of
//     CI, with the divergence budget stated per counter and enforced,
//     after quiescing the workload (counters snapshot mid-flight measure
//     queue depth, not inference): sender-tap retransmit segments/bytes
//     exact; receiver-tap reassembly accepts/drops exact at trace loss
//     rates, 2/conn + 0.5% under sustained ≥1% loss (receive-window trims
//     a passive observer cannot see); dupacks 2/conn + 5% (in-flight
//     accounting resets across recovery episodes). Tightening a stack's
//     counting rule means updating the analyzer's matching rule, not the
//     tolerance.
//
// # Scenario service: declarative specs, async jobs, canonical results
//
// internal/scenario turns the hand-built experiment harnesses into data:
// a JSON Spec names a topology (single-switch testbed or leaf-spine
// fabric), machines (any stack personality with its per-machine knobs),
// workloads (five kinds: bulk, rpc, kv, flowgen, incast), injected
// loss/reorder/duplication, seeds, duration/warmup, and a measurement
// block (flowmon attach points or per-rack fleets, per-flow records; the
// counters are always reported). internal/scenario/server exposes the
// runner as an HTTP job API (`flexbench serve`): POST a spec, follow the
// run as an NDJSON stream of progress lines — plus per-flow records when
// the measure block sets per_flow — and fetch the canonical result. The
// contract has three clauses:
//
//   - Strict validation, then exact construction. Parse rejects unknown
//     fields, out-of-range probabilities, dangling machine references,
//     duplicate listeners, over 65 535 dials by one machine (its ports),
//     and flowmon conflicts (an Iface holds one tap — double attaches are
//     spec errors, not silent overwrites). Build compiles the Spec
//     through the same testbed, fabric and apps constructors the figure
//     runners use, in spec order; Fig 15c, Fig 17a and Fig 17b run
//     through this builder, so spec-built scenarios are proven
//     equivalent to the committed tables bit for bit.
//
//   - Canonical, deterministic results. A Result marshals to one
//     canonical byte sequence (Result.Canonical); the same spec produces
//     byte-identical payloads on rerun, at any server worker-pool
//     width, and across server restarts (TestRerunIsByteIdentical, the CI
//     scenario-serve job; TestCoresFieldInvariance pins that the
//     vestigial "cores" field changes nothing but its own echo). The
//     scenario packages sit inside the determinism perimeter: no
//     wall-clock reads, no randomness but seeded generators, no map-order
//     iteration — job ids derive from a submission sequence number plus
//     a hash of the spec bytes, and validation, build, and readout all
//     walk spec-ordered slices.
//
//   - Async jobs with bounded workers. Jobs run on a worker pool clamped
//     to GOMAXPROCS (experiments.cells' rationale: more runnable workers
//     than CPUs buys nothing for CPU-bound simulation); cancellation lands
//     at the next progress boundary (32 chunks per run); specs and results
//     persist to disk, so a restarted server serves finished jobs
//     byte-identically and resumes interrupted ones. Example specs and
//     curl workflows live in examples/scenarios/.
//
// # Enforcement: one runtime gate per contract
//
// Every contract above is enforced by a test in `go test ./...` or by
// the CI step that runs the packages' tests with -tags flexdebug:
//
//   - pooling ownership: the allocation budgets and the loan counts at
//     quiescence (sim.Engine.Unreturned);
//   - zero-copy views: the view stamps, receive-ring poison and wire-view
//     checks under flexdebug, and the conformance suite's byte checks;
//   - determinism: TestInternalImportsNoClockOrRandomness (no package
//     under internal/ imports time, math/rand, math/rand/v2 or
//     crypto/rand) and the rerun gates, which catch map-order scans;
//   - same-instant order: the owner check under flexdebug and
//     TestOwnerOrder.
//
// `go test -tags flexdebug ./...` makes every freelist panic on double
// release, fills released slab buffers — the packets' payload copies —
// with 0xDB poison (so stale reads see garbage and stale writes panic at
// the slab's next Get), makes the fabric panic on transmitting a released frame,
// recomputes every flow-hash memo that is served or seeded, panicking on
// a mismatch, and checksums every wire view when SetPayloadView attaches
// it: a receive path about to write a whole in-window payload (core's
// landPayload, the baseline's receivePayload) panics if the view changed
// in flight. It
// also poisons the receive bytes a Consume releases, panics in the api
// view helpers on a Peek view used after its Consume or a Reserve view
// after its Commit, panics when a packet is released holding a wire view
// that bypassed SetPayloadView, and panics when an owned event or a
// delivery schedules through the engine's unowned schedulers.
package main

import (
	"fmt"
	"os"
)

func main() {
	fmt.Println("FlexTOE reproduction. Use:")
	fmt.Println("  go run ./cmd/flexbench      # regenerate the paper's tables and figures")
	fmt.Println("  go run ./cmd/flexbench run spec.json  # one scenario spec (examples/scenarios/)")
	fmt.Println("  go run ./cmd/flexbench serve  # the same specs as an HTTP job service")
	fmt.Println("  go run ./examples/quickstart")
	fmt.Println("  go run ./examples/tracing   # tracepoints and a tcpdump-style capture on a simulated run")
	os.Exit(0)
}
