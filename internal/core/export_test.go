package core

import "flextoe/internal/sim"

// ArmTXEagerly makes every kick arm the transmit pump, the way kickTX did
// before it held kicks on an empty carousel: the oracle
// TestHeldKickMatchesEagerArm compares the held arm against.
func (t *TOE) ArmTXEagerly() { t.eagerTX = true }

// TxInflight returns the TX segments the pump has injected and the NBI has
// not yet sent: read at each control-plane delivery, it shows on which
// side of the delivery a same-instant pump ran.
func (t *TOE) TxInflight() int { return t.txInflight }

// pendingHeld returns how many segments wait in the buffer.
func (r *rob) pendingHeld() int { return r.held }

// schedDeadline returns the flow scheduler's next deadline.
func (t *TOE) schedDeadline() (sim.Time, bool) { return t.sched.NextDeadline() }
