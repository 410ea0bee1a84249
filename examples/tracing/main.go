// Tracing: FlexTOE's data-path observability along both of the repo's
// instrumentation axes. A short lossy RPC workload runs with all 48
// tracepoints enabled and an on-NIC capture (core.TOE.PacketTap) feeding
// both a pcap file and a streaming flowmon analyzer; the program prints
// the tracepoint counters and the analyzer's per-flow inference, then
// reads the capture back through the same analyzer (proving pcap ingest
// and the live tap agree).
//
// Analyzer-versus-stack cross-validation is internal/flowmon/xval, run by
// its own tests (TestCrossValidateFlexTOE/Linux/HighLoss).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"flextoe/internal/apps"
	"flextoe/internal/flowmon"
	"flextoe/internal/netsim"
	"flextoe/internal/packet"
	"flextoe/internal/pcap"
	"flextoe/internal/sim"
	"flextoe/internal/testbed"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point (tracepoints + capture + live
// analysis); it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracing", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("w", "flextoe.pcap", "pcap output file")
	durMs := fs.Int("ms", 10, "simulated milliseconds")
	loss := fs.Float64("loss", 0.001, "injected loss probability")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	tb := testbed.New(netsim.SwitchConfig{LossProb: *loss, Seed: 42},
		testbed.MachineSpec{Name: "server", Kind: testbed.FlexTOE, Cores: 4, Seed: 1},
		testbed.MachineSpec{Name: "client", Kind: testbed.FlexTOE, Cores: 4, Seed: 2},
	)
	server := tb.M("server")
	server.TOE.Trace().EnableAll()

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer f.Close()
	w, err := pcap.NewWriter(f)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	// One on-NIC tap fans out to the capture file and the streaming
	// analyzer — tcpdump and the flow monitor share the vantage point.
	mon := flowmon.New(flowmon.Config{DupAck: flowmon.DupAckFlexTOE})
	analyze := flowmon.TOETap(tb.Eng, mon)
	server.TOE.PacketTapCost = 300
	server.TOE.PacketTap = func(dir string, pkt *packet.Packet) {
		w.WritePacket(tb.Eng.Now(), pkt)
		analyze(dir, pkt)
	}

	srv := &apps.RPCServer{ReqSize: 256}
	srv.Serve(server.Stack, 7777)
	cl := &apps.ClosedLoopClient{ReqSize: 256, Pipeline: 4}
	cl.Start(tb.M("client").Stack, tb.Addr("server", 7777), 8)
	tb.Run(sim.Time(*durMs) * sim.Millisecond)

	fmt.Fprintf(stdout, "completed %d RPCs in %dms (%.3f%% loss injected)\n\n",
		cl.Completed, *durMs, *loss*100)
	fmt.Fprintln(stdout, "tracepoint counters:")
	for _, pc := range server.TOE.Trace().Snapshot() {
		fmt.Fprintf(stdout, "  %-24s %d\n", pc.Point.Name(), pc.Count)
	}

	fmt.Fprintf(stdout, "\nflow analysis (on-NIC tap):\n%s", mon.Report().Format())
	fmt.Fprintf(stdout, "\nwrote %d packets to %s\n", w.Packets, *out)

	// Read the capture back through a second analyzer: the file and the
	// live tap must describe the same traffic.
	if err := f.Sync(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	data, err := os.ReadFile(*out)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	replay := flowmon.New(flowmon.Config{DupAck: flowmon.DupAckFlexTOE})
	fed, skipped, err := flowmon.FeedPCAP(bytes.NewReader(data), replay)
	if err != nil {
		fmt.Fprintln(stderr, "pcap read-back:", err)
		return 1
	}
	// Compare the timestamp-independent inference totals: the capture's
	// microsecond timestamps truncate RTTs, but every counted event must
	// agree exactly.
	fmt.Fprintf(stdout, "read back %d records (%d skipped)", fed, skipped)
	live, rb := mon.Report().Totals(), replay.Report().Totals()
	live.RTTN, live.RTTSumUs, live.RTTMaxUs = 0, 0, 0
	rb.RTTN, rb.RTTSumUs, rb.RTTMaxUs = 0, 0, 0
	if live == rb {
		fmt.Fprintln(stdout, ": capture matches the live tap")
	} else {
		fmt.Fprintln(stdout, ": capture DIVERGES from the live tap")
		return 1
	}
	return 0
}
