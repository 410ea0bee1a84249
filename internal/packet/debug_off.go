//go:build !flexdebug

package packet

func poisonPayload(p *Packet) {}
func checkPoison(p *Packet)   {}

func checkFlowHashes(p *Packet) {}
