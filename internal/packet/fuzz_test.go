package packet

import "testing"

// checkMemo requires the flow-hash memo to agree with the headers as
// they are now, whatever was decoded, poked or seeded before.
func checkMemo(t *testing.T, p *Packet, when string) {
	t.Helper()
	f := p.Flow()
	if got, want := p.FlowHash(), f.Hash(); got != want {
		t.Fatalf("%s: FlowHash() = %#x, Flow().Hash() = %#x (%v)", when, got, want, f)
	}
	if got, want := p.RevFlowHash(), f.Reverse().Hash(); got != want {
		t.Fatalf("%s: RevFlowHash() = %#x, Flow().Reverse().Hash() = %#x (%v)", when, got, want, f)
	}
}

// FuzzDecodeInto decodes two arbitrary frames into one pooled Packet:
// DecodeInto must never panic, and the flow-hash memo must never serve a
// value the current headers do not hash to — after either decode
// (successful or abandoned half-way), after a rewrite of each 4-tuple
// field, after a seed and a rewrite on top of it, and on the recycled
// shell. The corpus in testdata/fuzz/FuzzDecodeInto holds valid data,
// ACK+SACK, SYN, SYN-ACK and VLAN frames plus truncated SACK and timestamp
// options and a cut-off frame.
func FuzzDecodeInto(f *testing.F) {
	pool := NewPool()
	f.Fuzz(func(t *testing.T, first, second []byte) {
		p := pool.Get()
		if err := p.DecodeInto(first); err != nil {
			checkMemo(t, p, "after a failed decode")
			Release(p)
			return
		}
		checkMemo(t, p, "after decode")
		_ = p.DecodeInto(second) // an error leaves the headers half rewritten
		checkMemo(t, p, "after decoding a second frame into the same packet")

		p.IP.Src ^= 1
		checkMemo(t, p, "after rewriting IP.Src")
		p.IP.Dst += 0x01000000
		checkMemo(t, p, "after rewriting IP.Dst")
		p.TCP.SrcPort++
		checkMemo(t, p, "after rewriting TCP.SrcPort")
		p.TCP.DstPort ^= 0x8000
		checkMemo(t, p, "after rewriting TCP.DstPort")

		fl := p.Flow()
		p.SeedFlowHashes(fl.Hash(), fl.Reverse().Hash())
		checkMemo(t, p, "after SeedFlowHashes")
		p.IP.Src, p.IP.Dst = p.IP.Dst, p.IP.Src
		p.TCP.SrcPort, p.TCP.DstPort = p.TCP.DstPort, p.TCP.SrcPort
		checkMemo(t, p, "after reversing a seeded packet")

		Release(p)
		q := pool.Get()
		if q != p {
			t.Fatal("pool did not recycle the released shell")
		}
		checkMemo(t, q, "on the recycled shell")
		Release(q)
	})
}
