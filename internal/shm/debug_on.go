//go:build flexdebug

package shm

import "fmt"

// Debug reports whether the flexdebug build tag is active.
const Debug = true

// PoisonByte fills released pooled buffers under flexdebug, so stale
// reads see deterministic garbage instead of plausible old contents and
// writes through stale references are caught at the next Get.
const PoisonByte = 0xDB

// poolCheck tracks which objects are resident in a freelist and panics
// when the same pointer is Put twice without an intervening Get — the
// two-owners bug, caught at the second Put. Every build counts it too: the
// freelist's loan count ends below zero (sim.Engine.Unreturned).
type poolCheck[T any] struct {
	resident map[*T]struct{}
}

func (c *poolCheck[T]) got(x *T) {
	delete(c.resident, x)
}

func (c *poolCheck[T]) put(x *T) {
	if c.resident == nil {
		c.resident = make(map[*T]struct{})
	}
	if _, dup := c.resident[x]; dup {
		panic(fmt.Sprintf("shm: double release of %T %p", x, x))
	}
	c.resident[x] = struct{}{}
}

func slabPoison(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = PoisonByte
	}
}

// slabCheck verifies a recycled buffer is still fully poisoned when Get
// hands it out again: a dirty byte means someone wrote through a slice of
// a buffer they had already returned.
func slabCheck(b []byte) {
	for i, v := range b[:cap(b)] {
		if v != PoisonByte {
			panic(fmt.Sprintf("shm: write-after-release detected: slab byte %d is %#x, want poison %#x", i, v, PoisonByte))
		}
	}
}
