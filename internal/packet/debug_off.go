//go:build !flexdebug

package packet

// viewSum is the release-build no-op of the flexdebug view checksum:
// zero-size, so a Packet carries nothing for it.
type viewSum struct{}

func (viewSum) record(v []byte) {}
func (viewSum) check(v []byte)  {}

func checkFlowHashes(p *Packet) {}

func checkPayloadOwner(p *Packet) {}
