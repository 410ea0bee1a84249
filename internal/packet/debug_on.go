//go:build flexdebug

package packet

import (
	"fmt"
	"hash/crc32"
	_ "unsafe" // for go:linkname
)

// viewSum is the CRC-32 of a payload view taken when SetPayloadView
// attached it. A receiver that writes the whole payload in window
// recomputes it: those bytes are unacknowledged, so a sender must not
// have rewritten them since.
type viewSum struct{ sum uint32 }

func (s *viewSum) record(v []byte) { s.sum = crc32.ChecksumIEEE(v) }

func (s *viewSum) check(v []byte) {
	if got := crc32.ChecksumIEEE(v); got != s.sum {
		panic(fmt.Sprintf("packet: payload view of %d bytes changed in flight: CRC-32 %#x, attached as %#x (transmit bytes rewritten before their acknowledgment)",
			len(v), got, s.sum))
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

// checkPayloadOwner panics when a pooled packet is released holding a
// wire view (shm.PayloadBuf.View) that was not attached through
// SetPayloadView: a switch duplicate would copy it and no receiver would
// check it.
func checkPayloadOwner(p *Packet) {
	if !p.view && len(p.Payload) > 0 && isWireView(p.Payload) {
		panic("packet: a wire view was assigned to Payload directly: attach it with SetPayloadView")
	}
}

// isWireView reports whether b starts where a wire view starts.
//
//go:linkname isWireView flextoe/internal/shm.isWireView
func isWireView(b []byte) bool
