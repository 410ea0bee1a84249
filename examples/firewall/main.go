// Firewall: data-path packet filtering and capture — two of the §2.1
// feature list items. A firewall module drops blacklisted sources inside
// the FlexTOE pipeline while a tcpdump-style tap writes a pcap file of
// the surviving traffic.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"flextoe/internal/apps"
	"flextoe/internal/netsim"
	"flextoe/internal/packet"
	"flextoe/internal/pcap"
	"flextoe/internal/sim"
	"flextoe/internal/testbed"
	"flextoe/internal/xdp"
)

func main() {
	os.Exit(run(os.Stdout))
}

// run is the testable entry point; it returns the process exit code.
func run(stdout io.Writer) int {
	tb := testbed.New(netsim.SwitchConfig{},
		testbed.MachineSpec{Name: "server", Kind: testbed.FlexTOE, Cores: 2, Seed: 1},
		testbed.MachineSpec{Name: "good", Kind: testbed.FlexTOE, Cores: 2, Seed: 2},
		testbed.MachineSpec{Name: "evil", Kind: testbed.FlexTOE, Cores: 2, Seed: 3},
	)
	server := tb.M("server")

	// Firewall module with control-plane-managed blacklist.
	fw := xdp.NewFirewall()
	fw.Block(uint32(tb.M("evil").IP))
	server.TOE.AttachXDP(fw)

	// tcpdump: capture SYNs and data to port 7777 into a pcap file in a
	// directory of its own, removed on return.
	dir, err := os.MkdirTemp("", "flextoe-firewall-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	f, err := os.Create(filepath.Join(dir, "firewall.pcap"))
	if err != nil {
		panic(err)
	}
	defer f.Close()
	w, err := pcap.NewWriter(f)
	if err != nil {
		panic(err)
	}
	filter := &pcap.Filter{DstPort: 7777}
	server.TOE.PacketTapCost = 300
	server.TOE.PacketTap = func(dir string, pkt *packet.Packet) {
		if dir == "rx" && filter.Match(pkt) {
			w.WritePacket(tb.Eng.Now(), pkt)
		}
	}

	srv := &apps.RPCServer{ReqSize: 64}
	srv.Serve(server.Stack, 7777)

	good := &apps.ClosedLoopClient{ReqSize: 64}
	good.Start(tb.M("good").Stack, tb.Addr("server", 7777), 2)
	evilClient := &apps.ClosedLoopClient{ReqSize: 64}
	evilClient.Start(tb.M("evil").Stack, tb.Addr("server", 7777), 2)

	tb.Run(20 * sim.Millisecond)

	fmt.Fprintf(stdout, "good client completed: %d RPCs\n", good.Completed)
	fmt.Fprintf(stdout, "evil client completed: %d RPCs (blackholed at the firewall)\n", evilClient.Completed)
	fmt.Fprintf(stdout, "firewall drops:        %d packets\n", fw.Dropped)
	fmt.Fprintf(stdout, "pcap capture:          %d packets -> %s\n", w.Packets, f.Name())

	// Read the capture back and verify every packet passes the filter.
	if _, err := f.Seek(0, 0); err != nil {
		panic(err)
	}
	r, err := pcap.NewReader(f)
	if err != nil {
		panic(err)
	}
	n := 0
	for {
		rec, err := r.Next()
		if err != nil {
			break
		}
		p, err := packet.Decode(rec.Data)
		if err != nil || !filter.Match(p) {
			fmt.Fprintf(stdout, "capture record %d does not decode or match the filter\n", n)
			return 1
		}
		n++
	}
	if n != int(w.Packets) {
		fmt.Fprintf(stdout, "capture holds %d records, %d written\n", n, w.Packets)
		return 1
	}
	fmt.Fprintf(stdout, "capture verified:      %d records decode and match the filter\n", n)

	// Stop the load and let the testbed go quiet: every pooled object
	// must be back, the firewall's dropped packets among them.
	good.Stop()
	evilClient.Stop()
	tb.Run(tb.Eng.Now() + sim.Second)
	if err := tb.Eng.Unreturned(); err != nil {
		fmt.Fprintln(stdout, err)
		return 1
	}
	fmt.Fprintln(stdout, "pools: every loan returned")
	return 0
}
