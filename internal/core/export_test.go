package core

import "flextoe/internal/sim"

// TxInflight returns the TX segments the pump has injected and the NBI has
// not yet sent.
func (t *TOE) TxInflight() int { return t.txInflight }

// pendingHeld returns how many segments wait in the buffer.
func (r *rob) pendingHeld() int { return r.held }

// schedDeadline returns the flow scheduler's next deadline.
func (t *TOE) schedDeadline() (sim.Time, bool) { return t.sched.NextDeadline() }
