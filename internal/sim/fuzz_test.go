package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// fuzzSchedule turns a byte string into a schedule and runs it: top-level
// operations schedule an event, step once, or run until a later instant;
// an event that runs schedules up to three follow-ups of its own, read from
// the same bytes. Deltas come in classes on either side of every boundary
// the wheel has — the instant, a tick, a block, a lap of the far wheel —
// and out to 16 laps, and half of the classes keep only a few high bits,
// so events from different schedulers collide on an instant under
// different keys, and events of different laps on a far bucket. It returns
// the (event id, execution time) trace.
func fuzzSchedule(s scheduler, data []byte) []int64 {
	var trace []int64
	var linkSeq [3]uint64 // per-link transmit sequence: (at, dkey) never repeats
	events := 0
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	delta := func() Time {
		class, m := next(), Time(next())<<8|Time(next())
		switch class % 10 {
		case 0:
			return 0
		case 1:
			return m // within a tick
		case 2:
			return m << 9 // within a block
		case 3:
			return m >> 8 << tickBits // whole ticks: ties on a bucket's first instant
		case 4:
			return m << 20 // the far wheel, to its last block
		case 5:
			return m >> 10 << blockBits // whole blocks
		case 6:
			return farSpan - blockSpan + m<<10 // either side of the first lap's end
		case 7:
			return m << 24 // to 16 laps
		case 8:
			return farSpan + m<<22 // 1–5 laps
		default:
			return (1+m%5)*farSpan + m>>8<<blockBits // whole laps and blocks: a class-5 event's bucket
		}
	}
	var schedule func(depth int)
	schedule = func(depth int) {
		if events++; events > 4096 {
			return
		}
		at := s.now() + delta()
		var dkey uint64
		switch k := next() % 8; {
		case k >= 5:
			dkey = uint64(k-4)<<subBits | uint64(k&1)
		case k >= 2:
			linkSeq[k-2]++
			dkey = uint64(k-1)<<32 | linkSeq[k-2]
		}
		id, kids := events, 0
		if depth > 0 {
			kids = int(next() % 4)
		}
		s.schedule(at, dkey, func() {
			trace = append(trace, int64(id), int64(s.now()))
			for i := 0; i < kids; i++ {
				schedule(depth - 1)
			}
		})
	}
	for len(data) > 0 {
		switch next() % 4 {
		case 0, 1:
			schedule(2)
		case 2:
			s.step()
		default:
			s.runUntil(s.now() + delta())
		}
	}
	for s.step() {
	}
	return trace
}

// FuzzEngineOrder: whatever the schedule, the wheel runs the events the
// reference heap runs, at the same instants, in the same order, balances
// after every step and leaves nothing pending. testdata/fuzz holds the
// multi-lap corpus: every pending event a lap or more away, laps sharing a
// far bucket, RunUntil across laps.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{})
	// An idle jump, then inserts in reverse time order.
	f.Add([]byte{3, 5, 0xff, 0xff, 0, 2, 0x80, 0, 0, 0, 0, 2, 0x40, 0, 0, 0})
	// An event 2176 blocks out, in a later lap, and the same instant
	// scheduled again once an advance has brought it within the first lap
	// and once more when it is a block away.
	f.Add([]byte{0, 7, 0x11, 0, 0, 0, 3, 4, 0x14, 0, 0, 4, 0xfc, 0, 0, 0, 3, 4, 0xfb, 0xe0, 0, 5, 0x04, 0, 0, 0})
	// Parked short of the next far block, then an insert in between.
	f.Add([]byte{0, 5, 0x28, 0, 0, 0, 3, 5, 0x0c, 0, 0, 5, 0x04, 0, 0, 0, 2, 2, 2})
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{64, 256, 1024} {
		b := make([]byte, n)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e := New()
		got, want := fuzzSchedule(wheelSched{e, t}, data), fuzzSchedule(refSched{&refEngine{}}, data)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("wheel ran (id, time) %v, reference heap %v", got, want)
		}
		if e.Pending() != 0 {
			t.Fatalf("%d events left pending", e.Pending())
		}
	})
}
