package xdp

import (
	"encoding/binary"
)

// Native data-path modules implementing the §2.1 feature list: VLAN
// stripping, firewalling, and programmable flow classification. Each is a
// self-contained module with private state, per the §3.3 module API.

// VLANStrip removes 802.1Q tags from ingress packets (Table 2's
// "XDP (vlan-strip)" row). Untagged packets pass untouched.
func VLANStrip() Program {
	return &Func{
		Instr: 31,
		F: func(ctx *Context) Verdict {
			d := ctx.Data
			if len(d) < 18 {
				return Pass
			}
			if binary.BigEndian.Uint16(d[12:14]) != 0x8100 {
				return Pass
			}
			// Drop the 4-byte tag: [dst][src] + inner ethertype onward.
			stripped := make([]byte, len(d)-4)
			copy(stripped, d[:12])
			copy(stripped[12:], d[16:])
			ctx.Data = stripped
			return Pass
		},
	}
}

// Firewall drops packets whose source IP is blacklisted. The control
// plane mutates the set at runtime (the paper's example stores it in a
// BPF hash map).
type Firewall struct {
	blocked map[uint32]bool
	Dropped uint64
}

// NewFirewall creates an empty firewall.
func NewFirewall() *Firewall {
	return &Firewall{blocked: make(map[uint32]bool)}
}

// Block adds a source IPv4 address (as uint32) to the blacklist.
func (f *Firewall) Block(ip uint32) { f.blocked[ip] = true }

// Unblock removes an address.
func (f *Firewall) Unblock(ip uint32) { delete(f.blocked, ip) }

// Run checks the source address against the blacklist.
func (f *Firewall) Run(ctx *Context) (Verdict, int64) {
	const instr = 38 // parse + hash lookup
	d := ctx.Data
	if len(d) < 34 || binary.BigEndian.Uint16(d[12:14]) != 0x0800 {
		return Pass, instr
	}
	src := binary.BigEndian.Uint32(d[26:30])
	if f.blocked[src] {
		f.Dropped++
		return Drop, instr
	}
	return Pass, instr
}

// FlowClassifier counts packets and bytes per 4-tuple — the
// "programmable flow classification (eBPF)" feature. State is private to
// the module (§3.3).
type FlowClassifier struct {
	counts map[fcKey]*FlowCount
}

type fcKey struct {
	src, dst     uint32
	sport, dport uint16
}

// FlowCount is one flow's classification record.
type FlowCount struct {
	Packets uint64
	Bytes   uint64
}

// NewFlowClassifier creates an empty classifier.
func NewFlowClassifier() *FlowClassifier {
	return &FlowClassifier{counts: make(map[fcKey]*FlowCount)}
}

// Run updates the flow's counters and passes the packet.
func (c *FlowClassifier) Run(ctx *Context) (Verdict, int64) {
	const instr = 44
	d := ctx.Data
	if len(d) < 38 || binary.BigEndian.Uint16(d[12:14]) != 0x0800 || d[23] != 6 {
		return Pass, instr
	}
	k := fcKey{
		src:   binary.BigEndian.Uint32(d[26:30]),
		dst:   binary.BigEndian.Uint32(d[30:34]),
		sport: binary.BigEndian.Uint16(d[34:36]),
		dport: binary.BigEndian.Uint16(d[36:38]),
	}
	fc := c.counts[k]
	if fc == nil {
		fc = &FlowCount{}
		c.counts[k] = fc
	}
	fc.Packets++
	fc.Bytes += uint64(len(d))
	return Pass, instr
}

// Flows returns the number of distinct flows observed.
func (c *FlowClassifier) Flows() int { return len(c.counts) }

// Lookup returns the counters for a 4-tuple.
func (c *FlowClassifier) Lookup(src, dst uint32, sport, dport uint16) (FlowCount, bool) {
	fc, ok := c.counts[fcKey{src, dst, sport, dport}]
	if !ok {
		return FlowCount{}, false
	}
	return *fc, true
}
