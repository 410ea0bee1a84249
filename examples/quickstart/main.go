// Quickstart: two machines running FlexTOE exchange RPCs over the
// simulated fabric. Demonstrates the full stack: handshake via the
// control plane, data-path offload through the five-stage pipeline, and
// the libTOE socket API — whose data path is four view calls into the
// per-socket payload rings, with no copying send or receive.
package main

import (
	"fmt"
	"io"
	"os"

	"flextoe/internal/api"
	"flextoe/internal/apps"
	"flextoe/internal/netsim"
	"flextoe/internal/sim"
	"flextoe/internal/testbed"
)

func main() {
	os.Exit(run(os.Stdout))
}

// run is the testable entry point; it returns the process exit code.
func run(stdout io.Writer) int {
	// Build a two-machine cluster on one 40G switch.
	tb := testbed.New(netsim.SwitchConfig{},
		testbed.MachineSpec{Name: "server", Kind: testbed.FlexTOE, Cores: 4, Seed: 1},
		testbed.MachineSpec{Name: "client", Kind: testbed.FlexTOE, Cores: 4, Seed: 2},
	)

	// An echo server on port 7777: each callback copies what has arrived
	// (as much as the transmit ring takes) from the receive view into a
	// transmit view, releases it and publishes the copy.
	server := tb.M("server").Stack
	server.Listen(7777, func(sock api.Socket) {
		echo := func() {
			in, in2 := sock.Peek()
			n := min(api.ViewLen(in, in2), sock.TxSpace())
			if n == 0 {
				return
			}
			out, out2 := sock.Reserve(n)
			head := min(n, len(in))
			api.ViewCopyIn(out, out2, 0, in[:head])
			api.ViewCopyIn(out, out2, head, in2[:n-head])
			sock.Consume(n)
			sock.Commit(n)
		}
		sock.OnReadable(echo)
		sock.OnWritable(echo)
	})

	// A closed-loop client measuring RPC latency.
	client := &apps.ClosedLoopClient{ReqSize: 64}
	client.Start(tb.M("client").Stack, tb.Addr("server", 7777), 4)

	// Run 50 simulated milliseconds.
	tb.Run(50 * sim.Millisecond)

	toe := tb.M("server").TOE
	fmt.Fprintf(stdout, "completed RPCs:    %d\n", client.Completed)
	fmt.Fprintf(stdout, "median RTT:        %.1f us\n", float64(client.Latency.Percentile(50))/1e6)
	fmt.Fprintf(stdout, "99.99p RTT:        %.1f us\n", float64(client.Latency.Percentile(99.99))/1e6)
	fmt.Fprintf(stdout, "server data-path:  rx=%d segs, tx=%d segs, acks=%d\n",
		toe.RxSegs, toe.TxSegs, toe.AcksSent)
	fmt.Fprintf(stdout, "connections:       %d established\n", tb.M("server").Ctrl.Established)

	// Stop the load and let the testbed go quiet: every packet, frame and
	// pipeline record the engine's pools lent must be back.
	client.Stop()
	tb.Run(tb.Eng.Now() + sim.Second)
	if err := tb.Eng.Unreturned(); err != nil {
		fmt.Fprintln(stdout, err)
		return 1
	}
	fmt.Fprintln(stdout, "pools:             every loan returned")
	return 0
}
