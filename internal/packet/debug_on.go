//go:build flexdebug

package packet

import (
	"fmt"

	"flextoe/internal/shm"
)

// poisonPayload fills the released packet's retained payload backing with
// the poison byte. A stale Payload slice held past Release now reads
// deterministic garbage, and any write through it is caught by checkPoison
// when the pool hands the packet out again.
func poisonPayload(p *Packet) {
	buf := p.buf[:cap(p.buf)]
	for i := range buf {
		buf[i] = shm.PoisonByte
	}
}

// checkPoison verifies the payload backing is still fully poisoned at Get:
// a dirty byte means someone wrote through a Payload slice they no longer
// owned.
func checkPoison(p *Packet) {
	buf := p.buf[:cap(p.buf)]
	for i, b := range buf {
		if b != shm.PoisonByte {
			panic(fmt.Sprintf("packet: write-after-release detected: payload byte %d of %p is %#x, want poison %#x",
				i, p, b, shm.PoisonByte))
		}
	}
}

// checkFlowHashes recomputes a flow-hash memo that is about to be served
// (or was just seeded): a pair that disagrees with the headers means a
// builder seeded the wrong connection's hashes, which would mis-steer the
// segment silently in a normal build.
func checkFlowHashes(p *Packet) {
	f := p.hashFlow
	if fwd, rev := f.Hash(), f.Reverse().Hash(); p.fwdHash != fwd || p.revHash != rev {
		panic(fmt.Sprintf("packet: wrong flow-hash memo on %p for %v: holds %#x/%#x, the 4-tuple hashes to %#x/%#x",
			p, f, p.fwdHash, p.revHash, fwd, rev))
	}
}
