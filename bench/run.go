package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"flextoe/internal/packet"
	"flextoe/internal/scenario"
	"flextoe/internal/sim"
)

// setup is one timed set-up: spec bytes to first measured event.
type setup struct {
	built   *scenario.Built
	seconds float64
}

// setUp parses and builds the spec, then dials and warms up by running
// the testbed to the warm-up boundary. Execute's own warm-up run is then
// a no-op, so the timed window starts at its first measured event.
func setUp(specBytes []byte, tr *tracer, parent int) (*setup, error) {
	start := time.Now()
	id := tr.begin("setup", parent)
	defer tr.end(id)

	p := tr.begin("scenario.Parse", id)
	spec, err := scenario.Parse(specBytes)
	tr.end(p)
	if err != nil {
		return nil, err
	}
	bd := tr.begin("scenario.Build", id)
	b, err := scenario.Build(spec)
	tr.end(bd)
	if err != nil {
		return nil, err
	}
	w := tr.begin("warmup", id)
	b.TB.Run(sim.Time(spec.WarmupUs) * sim.Microsecond)
	tr.end(w)
	return &setup{built: b, seconds: time.Since(start).Seconds()}, nil
}

// chunk is one measured slice of the window.
type chunk struct {
	wallNs float64
	segs   uint64
	events uint64
}

// window is one execution of the measured window, observed between
// chunks from outside the event loop.
type window struct {
	res         *scenario.Result
	payload     []byte // Result.Canonical()
	chunks      []chunk
	first, last counters
	mem0, mem1  runtime.MemStats // at the window's first and last boundary
	pendingMax  int
	wedged      int // connections that delivered no byte in the second half
	// sent is, per machine in spec order, what its stack says it
	// retransmitted since t = 0: the truth a sender-side tap is held to.
	sent []retxTruth
}

type retxTruth struct {
	machine, ip string
	segs, bytes uint64
}

func (w *window) wallNs() float64 {
	var ns float64
	for _, c := range w.chunks {
		ns += c.wallNs
	}
	return ns
}

// segs is the number of segments all machines received in the window.
func (w *window) segs() float64 { return float64(w.last.segs - w.first.segs) }

// floorNsPerSeg is the window's interference-robust cost per segment:
// the floorQuantile of the chunks' host time per event, times the
// window's events per segment (an exact count). Per event rather than
// per segment because a workload's phases differ in events per segment
// (bulk_adverse's recovery episodes are cheap per segment), and a low
// quantile of the per-segment cost would report the cheapest phase, not
// the quietest moments; the cost of one event is much the same in every
// phase.
func (w *window) floorNsPerSeg() float64 {
	return quantile(w.nsPerEvent(), floorQuantile) * float64(w.last.events-w.first.events) / w.segs()
}

// nsPer returns each chunk's host nanoseconds per unit of the count.
func (w *window) nsPer(count func(chunk) uint64) []float64 {
	out := make([]float64, len(w.chunks))
	for i, c := range w.chunks {
		out[i] = c.wallNs / float64(count(c))
	}
	return out
}

func (w *window) nsPerSeg() []float64   { return w.nsPer(func(c chunk) uint64 { return c.segs }) }
func (w *window) nsPerEvent() []float64 { return w.nsPer(func(c chunk) uint64 { return c.events }) }

// fineChunks is how many slices the window is measured in. Interference
// on a shared box comes in bursts of milliseconds: at Execute's own 32
// chunks (half a second each) every chunk catches some and a noisy phase
// moves even their lower quartile by 20-40 %, while slices of a few
// milliseconds leave a tenth of them untouched in the same phase (see
// README, "Why fine chunks").
const fineChunks = 2048

// floorQuantile is the quantile of the chunks' cost that floor_ns_per_seg
// reports. In the noisiest phases seen on the reference box a twentieth
// of the slices still ran undisturbed.
const floorQuantile = 0.05

// maxBackoffUs is how long a healthy connection may deliver nothing: the
// control plane's retransmit timer backs off to MinRTO << 6 = 128 ms, so
// only a longer silence is a wedge. Windows whose second half is shorter
// (the smoke test's, a traced run's half-length ones on some workloads)
// cannot tell the two apart and skip the check.
const maxBackoffUs = 130_000

// execute runs the measured window of a set-up testbed and reads the
// result out. Execute's progress callback runs outside the event loop and
// may block; the one after its first chunk — the first after the warm-up
// boundary's counter reset — steps the testbed through the rest of the
// window in fine slices with Built.TB.Run, after which Execute's own
// remaining runs find nothing left to do. Stepping is neutral: the caller
// checks the payload against an unobserved Execute(nil). The time spent
// reading counters at a boundary is outside every chunk.
func execute(b *scenario.Built, tr *tracer, parent int) (*window, error) {
	w := &window{}
	warm := sim.Time(b.Spec.WarmupUs) * sim.Microsecond
	end := warm + sim.Time(b.Spec.DurationUs)*sim.Microsecond
	var (
		prev      counters
		open      chunk // the slice being measured; closes once it holds a segment
		openID    = -1
		readoutID = -1
		stepStart time.Time
		midConn   map[packet.Flow]uint32
		midMach   []uint64
		windowID  = tr.begin("window", parent)
	)
	boundary := func() {
		open.wallNs += float64(time.Since(stepStart).Nanoseconds())
		c := readCounters(b)
		open.segs += c.segs - prev.segs
		open.events += c.events - prev.events
		w.pendingMax = max(w.pendingMax, c.pending)
		prev, w.last = c, c
		if now := b.TB.Eng.Now(); open.segs > 0 && open.events > 0 || now >= end {
			if tr != nil {
				tr.spans[openID].Segs, tr.spans[openID].Events = open.segs, open.events
			}
			tr.end(openID)
			w.chunks = append(w.chunks, open)
			open = chunk{}
			if now < end {
				openID = tr.begin("chunk", windowID)
			}
		}
		if midConn == nil && b.TB.Eng.Now() >= warm+(end-warm)/2 {
			midConn, midMach = connProgress(b), machineProgress(b)
		}
		stepStart = time.Now()
	}
	stepped := false
	progress := func(doneUs, totalUs int64) bool {
		switch {
		case doneUs == 0:
			prev = readCounters(b)
			w.first = prev
			runtime.ReadMemStats(&w.mem0)
			openID = tr.begin("chunk", windowID)
			stepStart = time.Now()
		case !stepped:
			stepped = true
			boundary() // closes the chunk Execute itself ran
			from := b.TB.Eng.Now()
			for i := 1; i <= fineChunks && from < end; i++ {
				b.TB.Run(from + (end-from)*sim.Time(i)/fineChunks)
				boundary()
			}
			runtime.ReadMemStats(&w.mem1)
			tr.end(windowID)
			// What is left of Execute after the window is its readout.
			readoutID = tr.begin("Execute.readout", parent)
		}
		return true
	}
	res, err := b.Execute(progress)
	tr.end(readoutID)
	if err != nil {
		return nil, err
	}
	w.res = res

	fr := tr.begin("Built.FlowRecords", parent)
	flows := b.FlowRecords()
	tr.end(fr)
	cn := tr.begin("Result.Canonical", parent)
	w.payload = res.Canonical()
	tr.end(cn)
	if b.Spec.Measure.PerFlow && len(flows) != len(res.Flows) {
		return nil, fmt.Errorf("bench: FlowRecords returned %d records, the result carries %d", len(flows), len(res.Flows))
	}

	// A connection silent for the whole second half is wedged only if that
	// half outlasts the longest legitimate silence.
	judge := b.Spec.DurationUs/2 >= maxBackoffUs
	endConn, endMach := connProgress(b), machineProgress(b)
	for k, v := range midConn {
		if judge && endConn[k] == v {
			w.wedged++
		}
	}
	for i, m := range machines(b) {
		t := retxTruth{machine: m.Spec.Name, ip: m.IP.String()}
		if m.TOE != nil {
			t.segs, t.bytes = m.TOE.Counters.RetxSegs, m.TOE.Counters.RetxBytes
		} else {
			t.segs, t.bytes = m.Base.RetxSegs, m.Base.RetxBytes
			if judge && endMach[i] == midMach[i] {
				w.wedged += m.Base.NumConns() // a silent baseline machine: all its connections
			}
		}
		w.sent = append(w.sent, t)
	}
	// The window's last slice may have closed without a segment in it.
	if n := len(w.chunks); n > 1 && (w.chunks[n-1].segs == 0 || w.chunks[n-1].events == 0) {
		w.chunks[n-2].wallNs += w.chunks[n-1].wallNs
		w.chunks[n-2].segs += w.chunks[n-1].segs
		w.chunks[n-2].events += w.chunks[n-1].events
		w.chunks = w.chunks[:n-1]
	}
	if len(w.chunks) < 2 || w.chunks[0].segs == 0 {
		return nil, fmt.Errorf("bench: the window moved too few segments to measure (%d chunks)", len(w.chunks))
	}
	return w, nil
}

func sha(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// steppingNeutral runs the spec at the given share of its duration
// twice, once stepped and observed the way the measured window is and
// once as a bare Execute(nil), and reports whether the two canonical
// payloads are byte-equal: measuring must not change the run. Each
// execution's testbed is collected before the next is built, so the check
// never holds two in memory and the resident-set high-water mark belongs
// to the measured run.
func steppingNeutral(specBytes []byte, share float64) (bool, error) {
	short, err := withDuration(specBytes, share)
	if err != nil {
		return false, err
	}
	s, err := setUp(short, nil, -1)
	if err != nil {
		return false, err
	}
	stepped, err := execute(s.built, nil, -1)
	if err != nil {
		return false, err
	}
	s = nil
	runtime.GC()
	whole, err := scenario.Run(short, nil)
	if err != nil {
		return false, err
	}
	runtime.GC()
	return bytes.Equal(stepped.payload, whole.Canonical()), nil
}

// outcome is everything one benchmark invocation found.
type outcome struct {
	workload  string
	seed      uint64
	trace     bool
	correct   bool
	attempted uint64
	failed    uint64
	notes     []string // why correct is false or failed > 0
	sha       string   // SHA-256 of the measured window's canonical payload
	metrics   []metric
	fp        fingerprint
	spans     *traceFile // a traced run's spans and profile, written once the fingerprint is closed
	tracePath string
	windowS   float64 // host seconds the measured window took
	chunks    int     // slices it was measured in
	totalS    float64 // host seconds the whole invocation took
}

// metric is one named number. n is the sample count behind a median or
// quartile (0 for a single reading or an exact count).
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

func (o *outcome) add(name, unit string, value float64, n int) {
	o.metrics = append(o.metrics, metric{name, unit, value, n})
}

func (o *outcome) fail(format string, args ...any) {
	o.correct = false
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// setupSamples is how many times one run sets up; setup_s is the median.
const setupSamples = 3

// runWorkload measures one workload once. fullSpec is the workload's
// spec with the seed applied, at its file duration; work is the share of
// that fixed work to run (seconds / run_seconds). With trace off it
// reports the end-to-end metrics; with trace on it runs the window twice
// at half length (untraced, then traced and profiled), reports the
// per-layer ledger and keeps the spans.
func runWorkload(dir string, fullSpec []byte, work float64, trace bool) (*outcome, error) {
	o := &outcome{trace: trace, correct: true}
	began := time.Now()
	cpu0 := readCPUTimes()
	scale := work
	if trace {
		scale /= 2
	}
	specBytes, err := withDuration(fullSpec, scale)
	if err != nil {
		return nil, err
	}
	spec, err := scenario.Parse(specBytes)
	if err != nil {
		return nil, err
	}
	o.workload, o.seed = spec.Name, spec.Seed
	acct, err := accountFor(spec)
	if err != nil {
		return nil, err
	}

	neutral, err := steppingNeutral(fullSpec, work/20)
	if err != nil {
		return nil, err
	}
	if !neutral {
		o.fail("stepped and unobserved executions at 1/20 duration differ")
	}

	// First set-up feeds the timed window.
	first, err := setUp(specBytes, nil, -1)
	if err != nil {
		return nil, err
	}
	setups := []float64{first.seconds}
	established, synDrops := endpoints(first.built)
	notEstablished := max(0, (2*acct.conns-established+1)/2) + int(synDrops)
	if notEstablished > 0 {
		o.fail("%d of %d connections not established at the warm-up boundary", notEstablished, acct.conns)
	}

	// Collect what building left behind before the window, outside every
	// timing: the collector's next goal is then twice the testbed's live
	// heap, whatever cycle the set-up happened to end in, and peak_rss_mb
	// stops being bimodal across runs.
	runtime.GC()
	win, err := execute(first.built, nil, -1)
	if err != nil {
		return nil, err
	}
	rss, rssOK := peakRSSMB()
	o.sha = sha(win.payload)
	o.checkWindow(spec, acct, win, notEstablished)
	first.built = nil

	if !trace {
		// The other set-ups run after memory has been read.
		for len(setups) < setupSamples {
			runtime.GC()
			s, err := setUp(specBytes, nil, -1)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s.seconds)
		}
		o.add("floor_ns_per_seg", "ns", win.floorNsPerSeg(), len(win.chunks))
		o.add("host_ns_per_seg", "ns", win.wallNs()/win.segs(), 0)
		o.add("setup_s", "s", median(setups), len(setups))
		if !rssOK {
			return nil, fmt.Errorf("bench: cannot read VmHWM from /proc/self/status")
		}
		o.add("peak_rss_mb", "MB", rss, 0)
	} else if err := o.traceRun(dir, spec, specBytes, work, win); err != nil {
		return nil, err
	}
	o.windowS, o.chunks = win.wallNs()/1e9, len(win.chunks)
	o.totalS = time.Since(began).Seconds()
	o.fp = takeFingerprint(cpu0)
	if o.spans != nil {
		o.spans.Fingerprint = o.fp
		if o.tracePath, err = writeTrace(dir, o.spans); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// checkWindow applies the output checks that need the window's result and
// fills attempted/failed.
func (o *outcome) checkWindow(spec *scenario.Spec, acct accounting, win *window, notEstablished int) {
	var done uint64
	for i, n := range completedOps(spec, win.res) {
		if n == 0 {
			o.fail("workload block %d (%s) completed no operation in the window", i, spec.Workloads[i].Kind)
		}
		done += n
	}
	o.attempted = uint64(acct.conns) + done + acct.standing
	o.failed = uint64(notEstablished + win.wedged)
	if win.wedged > 0 {
		o.fail("%d connections delivered no byte in the second half of the window", win.wedged)
	}
	checkFlowmon(o, spec, win)
}
