// Package server exposes the scenario runner as an HTTP job service:
// POST a declarative spec, get a job id back, and follow the run through
// status polls or an NDJSON stream of progress and per-flow records.
//
// Jobs execute asynchronously on a bounded worker pool (clamped to
// GOMAXPROCS, like experiments.cells). Specs and finished payloads persist to an
// on-disk directory, so a restarted server lists completed jobs with
// their original byte-identical results and resumes an interrupted job
// once: a job a restart finds interrupted a second time is a poison pill
// (a spec that takes the process down) and ends failed instead.
// Because scenario execution is seed-deterministic, the same spec
// produces byte-identical result payloads on every rerun, at any worker
// pool width, and across server restarts — the CI gate submits each
// example spec twice at two pool widths and compares raw bytes.
//
// Endpoints (stdlib net/http pattern routing, no external deps):
//
//	POST /jobs              submit a spec; returns {"id": ...}
//	GET  /jobs              list jobs in submission order
//	GET  /jobs/{id}         one job's status
//	GET  /jobs/{id}/result  canonical result payload (409 until done)
//	GET  /jobs/{id}/stream  NDJSON: progress lines, then per-flow
//	                        records (when the spec sets
//	                        measure.per_flow), then a terminal done/
//	                        canceled/failed line; if the server shuts
//	                        down while the job is still queued, the
//	                        stream ends with a "shutdown" line instead
//	POST /jobs/{id}/cancel  request cancellation (effective at the next
//	                        progress boundary)
//
// The package sits under internal/ and therefore inside the determinism
// perimeter: it imports no wall clock and no random source
// (TestInternalImportsNoClockOrRandomness), and no scan depends on map
// order — job ids derive from a submission sequence number plus an FNV
// hash of the spec bytes, and every scan walks the ordered job slice.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"flextoe/internal/scenario"
)

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateCanceled = "canceled"
	StateFailed   = "failed"
)

// maxSpecBytes bounds a submitted spec body.
const maxSpecBytes = 1 << 20

// Config configures a Server.
type Config struct {
	// Dir is the persistence directory for specs and results. Empty
	// disables persistence (jobs live only in memory).
	Dir string
	// Workers is the worker-pool width. Values < 1 mean 1; values above
	// GOMAXPROCS are clamped to it — more runnable workers than CPUs
	// buys nothing for CPU-bound simulation and interleaves working
	// sets, exactly the rationale of experiments.cells.
	Workers int
	// Log receives diagnostics the job API cannot express (persistence
	// failures after a job was accepted). Nil disables logging.
	Log io.Writer
}

// job is one submitted scenario run. All mutable fields are guarded by
// the server mutex; state changes broadcast on the server cond.
type job struct {
	id   string
	name string
	spec []byte

	state      string
	errMsg     string
	result     []byte // canonical payload once state == done
	doneUs     int64
	totalUs    int64
	cancel     bool
	attempts   int    // times a worker claimed the job, persisted on each claim
	persistErr string // last failure writing this job's files, if any
}

// Server is the scenario job service. It implements http.Handler.
type Server struct {
	dir     string
	workers int
	log     io.Writer
	mux     *http.ServeMux

	mu     sync.Mutex
	cond   *sync.Cond
	jobs   []*job // submission order — the only iteration path
	byID   map[string]*job
	seq    uint64
	closed bool

	wg sync.WaitGroup
}

// New builds a Server, reloads any persisted jobs from cfg.Dir, and
// starts the worker pool. Persisted jobs with a result (or a terminal
// error marker) come back in their finished state. A job interrupted
// after its first claim re-enters the queue and runs again — same spec,
// same bytes; one interrupted after its second claim ends
// "failed: interrupted".
func New(cfg Config) (*Server, error) {
	w := cfg.Workers
	if w < 1 {
		w = 1
	}
	if p := runtime.GOMAXPROCS(0); w > p {
		w = p
	}
	s := &Server{
		dir:     cfg.Dir,
		workers: w,
		log:     cfg.Log,
		byID:    make(map[string]*job),
	}
	s.cond = sync.NewCond(&s.mu)
	if s.dir != "" {
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return nil, fmt.Errorf("scenario server: %w", err)
		}
		if err := s.reload(); err != nil {
			return nil, err
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	for i := 0; i < w; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// ServeHTTP dispatches to the job API.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Workers reports the clamped worker-pool width.
func (s *Server) Workers() int { return s.workers }

// Close stops the worker pool after in-flight jobs finish. Queued jobs
// stay queued (and persisted), so a successor server resumes them;
// their open streams end with a "shutdown" line.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// reload restores persisted jobs. os.ReadDir sorts by filename and ids
// embed a zero-padded sequence number, so jobs reload in submission
// order.
func (s *Server) reload() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("scenario server: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".spec.json") {
			continue
		}
		id := strings.TrimSuffix(name, ".spec.json")
		spec, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			return fmt.Errorf("scenario server: %w", err)
		}
		j := &job{id: id, spec: spec, state: StateQueued}
		if sp, err := scenario.Parse(spec); err == nil {
			j.name = sp.Name
		} else {
			j.state, j.errMsg = StateFailed, err.Error()
		}
		if res, err := os.ReadFile(filepath.Join(s.dir, id+".result.json")); err == nil {
			j.state, j.result = StateDone, res
		} else if term, err := os.ReadFile(filepath.Join(s.dir, id+".state.json")); err == nil {
			var t struct {
				State string `json:"state"`
				Error string `json:"error"`
			}
			if json.Unmarshal(term, &t) == nil && (t.State == StateCanceled || t.State == StateFailed) {
				j.state, j.errMsg = t.State, t.Error
			}
		}
		if j.state == StateQueued {
			if b, err := os.ReadFile(filepath.Join(s.dir, id+".attempt.json")); err == nil {
				var a struct {
					Attempts int `json:"attempts"`
				}
				if json.Unmarshal(b, &a) == nil {
					j.attempts = a.Attempts
				}
			}
			if j.attempts >= 2 {
				j.state, j.errMsg = StateFailed, "interrupted"
				s.persistTerminal(j)
			}
		}
		var seq uint64
		if _, err := fmt.Sscanf(id, "j%d-", &seq); err == nil && seq >= s.seq {
			s.seq = seq + 1
		}
		s.jobs = append(s.jobs, j)
		s.byID[j.id] = j
	}
	return nil
}

// worker claims the oldest queued job, runs it, repeats. Claim order is
// deterministic (submission order); completion order is not, but job
// payloads depend only on their own spec.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var j *job
		for !s.closed {
			if j = s.nextQueuedLocked(); j != nil {
				break
			}
			s.cond.Wait()
		}
		if j == nil {
			s.mu.Unlock()
			return
		}
		j.state = StateRunning
		j.attempts++
		s.persistAttempt(j)
		s.cond.Broadcast()
		s.mu.Unlock()
		s.runJob(j)
	}
}

func (s *Server) nextQueuedLocked() *job {
	for _, j := range s.jobs {
		if j.state == StateQueued && !j.cancel {
			return j
		}
		if j.state == StateQueued && j.cancel {
			j.state = StateCanceled
			s.persistTerminal(j)
			s.cond.Broadcast()
		}
	}
	return nil
}

// runJob executes one job, publishing progress through the cond and the
// cancel flag through the progress callback's return value.
func (s *Server) runJob(j *job) {
	res, err := s.execute(j)
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == scenario.ErrCanceled:
		j.state = StateCanceled
		s.persistTerminal(j)
	case err != nil:
		j.state, j.errMsg = StateFailed, err.Error()
		s.persistTerminal(j)
	default:
		j.result = res.Canonical()
		j.state = StateDone
		if s.dir != "" {
			if perr := s.writeFile(j.id+".result.json", j.result); perr != nil {
				j.persistErr = perr.Error()
				s.logf("job %s: persist result: %v", j.id, perr)
			}
		}
	}
	s.cond.Broadcast()
}

// execute runs the scenario for one job. A panic out of the builder or
// engine (a spec that slipped past validation) becomes a failed job, not
// a dead worker: the pool and every other job keep running.
func (s *Server) execute(j *job) (res *scenario.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("scenario panicked: %v", r)
		}
	}()
	return scenario.Run(j.spec, func(doneUs, totalUs int64) bool {
		s.mu.Lock()
		j.doneUs, j.totalUs = doneUs, totalUs
		cancel := j.cancel
		s.cond.Broadcast()
		s.mu.Unlock()
		return !cancel
	})
}

// persistTerminal records a canceled/failed outcome so a restarted
// server does not re-queue the job. Caller holds the mutex.
func (s *Server) persistTerminal(j *job) {
	s.persistJSON(j, "state", struct {
		State string `json:"state"`
		Error string `json:"error,omitempty"`
	}{j.state, j.errMsg})
}

// persistAttempt records a claim before the job runs, so a restart can
// tell a job interrupted once from one that keeps taking the process
// down. Caller holds the mutex.
func (s *Server) persistAttempt(j *job) {
	s.persistJSON(j, "attempt", struct {
		Attempts int `json:"attempts"`
	}{j.attempts})
}

// persistJSON writes v as the job's <id>.<kind>.json. A persistence
// failure is recorded on the job (and logged) — the in-memory state
// stays authoritative. Caller holds the mutex.
func (s *Server) persistJSON(j *job, kind string, v any) {
	if s.dir == "" {
		return
	}
	b, err := json.Marshal(v)
	if err == nil {
		err = s.writeFile(j.id+"."+kind+".json", b)
	}
	if err != nil {
		j.persistErr = err.Error()
		s.logf("job %s: persist %s: %v", j.id, kind, err)
	}
}

// writeFile persists bytes atomically-enough for this service: write a
// temp file, then rename over the final name.
func (s *Server) writeFile(name string, b []byte) error {
	tmp := filepath.Join(s.dir, name+".tmp")
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(s.dir, name))
}

// logf emits one diagnostic line to the configured log writer.
func (s *Server) logf(format string, args ...any) {
	if s.log != nil {
		fmt.Fprintf(s.log, "scenario server: "+format+"\n", args...)
	}
}

// status is the wire form of a job's state. PersistError reports a
// failure writing the job's spec/result/state files: the job itself is
// fine in memory, but it will not survive a server restart.
type status struct {
	ID           string `json:"id"`
	Name         string `json:"name,omitempty"`
	State        string `json:"state"`
	DoneUs       int64  `json:"done_us"`
	TotalUs      int64  `json:"total_us"`
	Error        string `json:"error,omitempty"`
	PersistError string `json:"persist_error,omitempty"`
}

func (j *job) statusLocked() status {
	return status{ID: j.id, Name: j.name, State: j.state,
		DoneUs: j.doneUs, TotalUs: j.totalUs, Error: j.errMsg,
		PersistError: j.persistErr}
}

func terminal(state string) bool {
	return state == StateDone || state == StateCanceled || state == StateFailed
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	w.Write(append(b, '\n'))
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{msg})
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.byID[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job id")
	}
	return j
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	if len(body) > maxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "spec exceeds 1 MiB")
		return
	}
	sp, err := scenario.Parse(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	h := fnv.New32a()
	h.Write(body)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	id := fmt.Sprintf("j%06d-%08x", s.seq, h.Sum32())
	s.seq++
	// Persist the spec before accepting the job: a 202 promises the job
	// survives a restart, so a spec that cannot be written is an error
	// the client must see, not a job that silently vanishes.
	if s.dir != "" {
		if err := s.writeFile(id+".spec.json", body); err != nil {
			s.mu.Unlock()
			s.logf("job %s: persist spec: %v", id, err)
			writeError(w, http.StatusInternalServerError, "persist spec: "+err.Error())
			return
		}
	}
	j := &job{id: id, name: sp.Name, spec: body, state: StateQueued}
	s.jobs = append(s.jobs, j)
	s.byID[id] = j
	s.cond.Broadcast()
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}{id, StateQueued})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]status, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.statusLocked())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	st := j.statusLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	state, res := j.state, j.result
	s.mu.Unlock()
	if state != StateDone {
		writeError(w, http.StatusConflict, "job is "+state+", result only exists once done")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(res)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	if !terminal(j.state) {
		j.cancel = true
		if j.state == StateQueued {
			j.state = StateCanceled
			s.persistTerminal(j)
		}
		s.cond.Broadcast()
	}
	st := j.statusLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// streamLine is one NDJSON stream record. Progress lines carry state
// and completion; flow lines embed one per-flow record; the terminal
// line repeats the final state (plus the error for failed jobs). A
// "shutdown" line ends the stream of a still-queued job when the server
// closes.
type streamLine struct {
	Type string `json:"type"`
	status
}

type flowLine struct {
	Type string `json:"type"`
	scenario.FlowRecord
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	// A disconnected client must not leave this handler parked on the
	// cond forever; wake the wait loop when the request context ends.
	stop := context.AfterFunc(r.Context(), func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()

	lastDone, lastState := int64(-1), ""
	var st status
	for {
		s.mu.Lock()
		// Stop waiting on shutdown if the job is still queued: Close
		// drains running jobs but leaves queued ones for a successor
		// server, so their streams would otherwise park forever.
		for j.state == lastState && j.doneUs == lastDone && !terminal(j.state) &&
			!(s.closed && j.state == StateQueued) &&
			r.Context().Err() == nil {
			s.cond.Wait()
		}
		shutdown := s.closed && j.state == StateQueued
		st = j.statusLocked()
		s.mu.Unlock()
		if r.Context().Err() != nil {
			return
		}
		if shutdown {
			enc.Encode(streamLine{Type: "shutdown", status: st})
			if fl != nil {
				fl.Flush()
			}
			return
		}
		lastState, lastDone = st.State, st.DoneUs
		if err := enc.Encode(streamLine{Type: "progress", status: st}); err != nil {
			return
		}
		if fl != nil {
			fl.Flush()
		}
		if terminal(st.State) {
			break
		}
	}
	if st.State == StateDone {
		s.mu.Lock()
		payload := j.result
		s.mu.Unlock()
		var res scenario.Result
		if err := json.Unmarshal(payload, &res); err == nil {
			for i := range res.Flows {
				if err := enc.Encode(flowLine{Type: "flow", FlowRecord: res.Flows[i]}); err != nil {
					return
				}
			}
		}
	}
	enc.Encode(streamLine{Type: st.State, status: st})
	if fl != nil {
		fl.Flush()
	}
}
