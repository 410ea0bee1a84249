//go:build !flexdebug

package sim

// running is the release-build no-op of the flexdebug owner check:
// zero-size, so step and the schedulers gain no store or branch.
type running struct{}

func (running) enter(dkey uint64) uint64 { return 0 }
func (running) leave(prev uint64)        {}

func checkUnowned(e *Engine, method string) {}
