package libtoe

// FinRx reports whether the peer closed its direction.
func (k *Socket) FinRx() bool { return k.finRx }
