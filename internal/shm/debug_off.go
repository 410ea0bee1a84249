//go:build !flexdebug

package shm

// Debug reports whether the flexdebug build tag is active.
const Debug = false

// poolCheck is the release-build no-op of the flexdebug double-release
// tracker: zero-size, so Freelist stays a bare slice header and Get/Put
// compile down to the slice ops alone.
type poolCheck[T any] struct{}

func (poolCheck[T]) got(x *T) {}
func (poolCheck[T]) put(x *T) {}

func slabPoison(b []byte) {}
func slabCheck(b []byte)  {}

// ringCheck is the release-build no-op of the flexdebug view stamps and
// receive-ring poison: zero-size, so a PayloadBuf keeps its layout and
// its methods gain no store or branch.
type ringCheck struct{}

func (ringCheck) lend(b *PayloadBuf, start, n uint32) {}
func (ringCheck) wire(v []byte)                       {}
func (ringCheck) moved()                              {}
func (ringCheck) markRead()                           {}
func (ringCheck) released(b *PayloadBuf, n uint32)    {}

// lendZeros lends the first n bytes of the shared zero array: every zero
// window starts at its first byte.
func (ringCheck) lendZeros(b *PayloadBuf, n uint32) []byte { return zeros[:n:n] }
