// Package potest exercises the poolown pass against the real pools:
// packets (packet.Get/Release), frames (netsim.NewFrame/ReleaseFrame),
// and generic freelists/slabs (shm).
package potest

import (
	"flextoe/internal/netsim"
	"flextoe/internal/packet"
	"flextoe/internal/shm"
	"flextoe/internal/sim"
)

type record struct {
	seq uint32
}

var recFree shm.Freelist[record]

// leakedPacket builds a packet and forgets it: no release, no handoff.
func leakedPacket() {
	p := packet.Get() // want `p acquired from the packet pool is neither released nor handed off`
	p.TCP.Seq = 1
}

// releasedPacket terminates ownership correctly.
func releasedPacket() {
	p := packet.Get()
	p.TCP.Seq = 1
	packet.Release(p)
}

// transmittedPacket hands ownership to the fabric (any call argument).
func transmittedPacket(send func(*packet.Packet)) {
	p := packet.Get()
	send(p)
}

// returnedPacket transfers ownership to the caller.
func returnedPacket() *packet.Packet {
	p := packet.Get()
	p.TCP.Seq = 7
	return p
}

// storedPacket hands ownership to a long-lived holder.
type holder struct{ pkt *packet.Packet }

func storedPacket(h *holder) {
	p := packet.Get()
	h.pkt = p
}

// doubleRelease is the two-owners bug: the pool hands one object out twice.
func doubleRelease() {
	p := packet.Get()
	packet.Release(p)
	packet.Release(p) // want `double release of p \(already released by Release\)`
}

// useAfterRelease touches a packet whose journey ended.
func useAfterRelease() uint32 {
	p := packet.Get()
	packet.Release(p)
	return p.TCP.Seq // want `p used after Release released it back to the packet pool`
}

// dropPointRegression is the PR-3/PR-4 drop-point shape done wrong: the
// frame is released first, then its packet is reached through the dead
// frame. (The correct order releases the packet, then the frame.)
func dropPointRegression(f *netsim.Frame, p *packet.Packet, now sim.Time) {
	g := netsim.NewFrame(p, now)
	netsim.ReleaseFrame(g)
	packet.Release(g.Pkt) // want `g used after ReleaseFrame released it back to the frame pool`
	_ = f
}

// dropPointCorrect: packet first, then frame.
func dropPointCorrect(p *packet.Packet, now sim.Time) {
	g := netsim.NewFrame(p, now)
	packet.Release(g.Pkt)
	netsim.ReleaseFrame(g)
}

// branchRelease releases on an early-exit path only: the fallthrough use
// is clean because the releasing branch leaves the function.
func branchRelease(drop bool) *packet.Packet {
	p := packet.Get()
	if drop {
		packet.Release(p)
		return nil
	}
	return p
}

// branchLeak releases on one path but uses the packet after the branch
// merges: the non-terminating release branch poisons the merge.
func branchLeak(drop bool) uint32 {
	p := packet.Get()
	if drop {
		packet.Release(p)
	}
	return p.TCP.Seq // want `p used after Release released it`
}

// freelistDouble exercises the generic pool.
func freelistDouble() {
	r := recFree.Get()
	if r == nil {
		r = &record{}
	}
	r.seq = 9
	recFree.Put(r)
	recFree.Put(r) // want `double release of r \(already released by Put\)`
}

// freelistReuse re-acquires into the same variable: tracking resets.
func freelistReuse() {
	r := recFree.Get()
	if r == nil {
		r = &record{}
	}
	recFree.Put(r)
	r = recFree.Get()
	if r != nil {
		recFree.Put(r)
	}
}

// deferredRelease is the sanctioned cleanup shape.
func deferredRelease() uint32 {
	p := packet.Get()
	defer packet.Release(p)
	p.TCP.Seq = 3
	return p.TCP.Seq
}

// tcarrier mimics the pooled timer-carrier pattern (ctrl connTimer,
// baseline btimer): drawn per arming via a getTimer method, recycled via
// putTimer when the timer fires dead or is disarmed.
type tcarrier struct{ id uint32 }

type towner struct{ free shm.Freelist[tcarrier] }

func (o *towner) getTimer() *tcarrier {
	tm := o.free.Get()
	if tm == nil {
		tm = &tcarrier{}
	}
	return tm
}

func (o *towner) putTimer(tm *tcarrier) { o.free.Put(tm) }

// timerLeak draws a carrier and never arms or recycles it.
func (o *towner) timerLeak() {
	tm := o.getTimer() // want `tm acquired from the timer pool is neither released nor handed off`
	tm.id = 1
}

// timerArmed hands the carrier to the engine: ownership rides the event.
func (o *towner) timerArmed(arm func(*tcarrier)) {
	tm := o.getTimer()
	arm(tm)
}

// timerArmedOwned arms through the owning component's sim.Owner: the
// scheduling call is the handoff, as it is on the engine.
func (o *towner) timerArmedOwned(own sim.Owner, fire func(any)) {
	tm := o.getTimer()
	own.AfterCall(10, fire, tm)
}

// timerDouble recycles one carrier twice: two future armings would share
// it.
func (o *towner) timerDouble() {
	tm := o.getTimer()
	o.putTimer(tm)
	o.putTimer(tm) // want `double release of tm \(already released by putTimer\)`
}

// timerUseAfterPut reads a recycled carrier: the next arming may already
// have rewritten it.
func (o *towner) timerUseAfterPut() uint32 {
	tm := o.getTimer()
	o.putTimer(tm)
	return tm.id // want `tm used after putTimer released it back to the timer pool`
}

// annotated: a justified leak (fixtures may drop pooled objects to the
// garbage collector; the pool refills on demand).
func annotated() {
	//flexvet:poolown fixture deliberately leaks one packet to the GC
	p := packet.Get()
	p.TCP.Seq = 1
}
