package flowmon

import (
	"bytes"
	"testing"
)

// FuzzFeedPCAP feeds arbitrary bytes to FeedPCAP, as a capture file from
// outside would arrive, into an analyzer whose flow table holds four
// directed flows. FeedPCAP may return an error but must never panic, the
// table must stay inside its bound, and every record read must be
// counted as analyzed. The committed corpus (testdata/fuzz/FuzzFeedPCAP)
// is two captures pcap.Writer wrote, both directions at one NIC, in a
// short bulk run of three FlexTOE connections through a switch dropping
// 5 % of frames: the sender NIC's first 16 frames (the handshakes and the
// first segments) and 16 frames of the receiver NIC's a millisecond in,
// past losses.
func FuzzFeedPCAP(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxFlows = 4
		a := New(Config{MaxFlows: maxFlows})
		fed, skipped, _ := FeedPCAP(bytes.NewReader(data), a)
		if n := a.NumFlows(); n > maxFlows {
			t.Fatalf("%d flows tracked, bound %d", n, maxFlows)
		}
		r := a.Report()
		if len(r.Flows) > maxFlows || r.Pkts != uint64(fed) {
			t.Fatalf("report: %d flows, %d packets; fed %d, skipped %d", len(r.Flows), r.Pkts, fed, skipped)
		}
	})
}
