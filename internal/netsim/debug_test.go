//go:build flexdebug

package netsim

import (
	"testing"

	"flextoe/internal/packet"
	"flextoe/internal/sim"
)

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestFrameDoubleReleasePanics(t *testing.T) {
	p := &packet.Packet{}
	f := NewFrame(p, 0)
	ReleaseFrame(f)
	mustPanic(t, "double ReleaseFrame", func() { ReleaseFrame(f) })
	_ = defaultFrames.getFrame() // drain the poisoned entry
}

func TestFrameUseAfterReleaseCaught(t *testing.T) {
	eng := sim.New()
	a := NewIface(eng, "a", packet.EtherAddr{1}, 1e9)
	b := NewIface(eng, "b", packet.EtherAddr{2}, 1e9)
	Connect(a, b, 0)
	f := NewFrame(&packet.Packet{}, 0)
	ReleaseFrame(f)
	mustPanic(t, "Send of released frame", func() { a.Send(f) })
	_ = defaultFrames.getFrame() // drain the poisoned entry
}
