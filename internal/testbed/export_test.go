package testbed

import (
	"unsafe"

	"flextoe/internal/shm"
)

// zeroStart is the address of shm's shared zero array: the View of a ring
// with no storage lends its first bytes.
var zeroStart = func() uintptr {
	v, _ := shm.NewPayloadBuf(1).View(0, 1)
	return uintptr(unsafe.Pointer(&v[0]))
}()

// isZeroWindow reports whether v lies in shm's shared zero array: a Peek
// view of a receive ring that has no storage.
func isZeroWindow(v []byte) bool {
	off := uintptr(unsafe.Pointer(unsafe.SliceData(v))) - zeroStart
	return off < shm.MaxRingBytes && uintptr(len(v)) <= shm.MaxRingBytes-off
}
