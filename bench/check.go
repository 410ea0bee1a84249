package main

import (
	"strings"

	"flextoe/internal/scenario"
)

// checkFlowmon holds every flowmon tap to the sender-side clause of
// doc.go's tolerance table: the retransmitted segments and bytes a tap
// infers for flows its own machine sends equal what that machine's stack
// counted. Both sides cover the whole run (the analyzer observes from
// attach). It needs per-flow records to tell a tap's outbound flows from
// its inbound ones, so taps without measure.per_flow go unchecked.
func checkFlowmon(o *outcome, spec *scenario.Spec, win *window) {
	if !spec.Measure.PerFlow {
		return
	}
	for _, tap := range win.res.Flowmon {
		var truth retxTruth
		for _, t := range win.sent {
			if t.machine == tap.Machine {
				truth = t
			}
		}
		var segs, bytes uint64
		for _, f := range win.res.Flows {
			if f.Machine == tap.Machine && strings.HasPrefix(f.Src, truth.ip+":") {
				segs += f.RetxSegs
				bytes += f.RetxBytes
			}
		}
		if segs != truth.segs || bytes != truth.bytes {
			o.fail("flowmon tap on %s saw %d retransmitted segs / %d bytes outbound, its stack counted %d / %d",
				tap.Machine, segs, bytes, truth.segs, truth.bytes)
		}
	}
}
