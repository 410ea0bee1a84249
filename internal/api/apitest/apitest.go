// Package apitest is the cross-stack conformance suite for the
// api.Socket contract: every stack personality (FlexTOE, Linux, TAS,
// Chelsio, and FlexTOE's run-to-completion ablation) must present
// identical semantics to applications — the paper
// runs identical application binaries across all baselines (§5), so the
// socket layer is the compatibility boundary the whole evaluation rests
// on.
//
// The suite (TestSocketConformance) pins the parts of the contract
// applications actually depend on, through the view calls only:
//
//   - partial writes under full buffers (Reserve returns less than was
//     asked: flow control surfaces as short writes, never blocking or
//     data loss),
//   - edge-triggered OnReadable/OnWritable (no level-triggered callback
//     storms while data sits unconsumed),
//   - the zero-copy view aliasing rules (Peek invalidated by Consume,
//     Reserve by Commit; views stable between those calls),
//   - views across the payload ring's move to full size (rings start
//     small and grow when the bytes in flight outgrow them): staged,
//     unacknowledged and unconsumed bytes all survive it,
//   - EOF after FIN surfaced as an OnReadable fire that drains to
//     Readable()==0,
//   - no loss of data arriving between accept and OnReadable
//     registration,
//   - every byte written ahead of a FIN committed in the same callback,
//     and a FIN after the stream has drained and idled.
//
// Write and Read are the copying send and receive every test in the tree
// builds on the views; sockets have no copying calls of their own.
package apitest

import "flextoe/internal/api"

// Write stages p in k's transmit ring through Reserve and publishes it
// with Commit. It returns how many bytes the socket took: fewer than
// len(p) when the transmit buffer is short.
func Write(k api.Socket, p []byte) int {
	a, b := k.Reserve(len(p))
	n := api.ViewLen(a, b)
	api.ViewCopyIn(a, b, 0, p[:n])
	k.Commit(n)
	return n
}

// Read copies up to len(p) readable bytes out of k through Peek and
// releases them with Consume. It returns the count, 0 when nothing is
// readable.
func Read(k api.Socket, p []byte) int {
	a, b := k.Peek()
	n := min(len(p), api.ViewLen(a, b))
	api.ViewCopyOut(p[:n], a, b, 0)
	k.Consume(n)
	return n
}
