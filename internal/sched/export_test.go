package sched

import "flextoe/internal/sim"

// Horizon returns the wheel's reach.
func (c *Carousel) Horizon() sim.Time { return c.gran * sim.Time(c.slots) }

// Interval returns the flow's programmed pacing interval.
func (c *Carousel) Interval(id uint32) sim.Time { return c.flow(id).interval }

// Pending returns the number of flows waiting (wheel + RR).
func (c *Carousel) Pending() int {
	n := 0
	for _, pg := range c.state {
		for i := range pg {
			if pg[i].inWheel || pg[i].inRR {
				n++
			}
		}
	}
	return n
}
