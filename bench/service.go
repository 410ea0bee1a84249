package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"flextoe/internal/scenario"
	"flextoe/internal/scenario/server"
	"flextoe/internal/sim"
)

// shardSpeedup runs a short incast_fabric once on the serial engine and
// once sharded across two cores and reports serial time over sharded
// time: above 1 the parallel engine pays (ROADMAP item 2). The payloads
// must be byte-equal apart from the echoed core count.
func (o *outcome) shardSpeedup(dir string, work float64) error {
	full, err := loadSpec(dir, "incast_fabric", 1)
	if err != nil {
		return err
	}
	short, err := withDuration(full, work/32)
	if err != nil {
		return err
	}
	run := func(cores int) (float64, []byte, error) {
		spec, err := scenario.Parse(short)
		if err != nil {
			return 0, nil, err
		}
		spec.Cores = cores
		spec.WarmupUs = 2000 // enough for the sixteen handshakes; keeps the untimed part short
		b, err := scenario.Build(spec)
		if err != nil {
			return 0, nil, err
		}
		b.TB.Run(sim.Time(spec.WarmupUs) * sim.Microsecond)
		start := time.Now()
		res, err := b.Execute(nil)
		if err != nil {
			return 0, nil, err
		}
		elapsed := time.Since(start).Seconds()
		res.Cores = 1
		return elapsed, res.Canonical(), nil
	}
	serial, want, err := run(1)
	if err != nil {
		return err
	}
	sharded, got, err := run(2)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, got) {
		o.fail("incast_fabric on 2 engine shards diverged from the serial run")
	}
	o.add("sim.shard2_speedup", "ratio", serial/sharded, 0)
	return nil
}

// serverJobs is how many jobs the service driver submits at full work.
const serverJobs = 24

// serverDriver drives the job service in process through its
// http.Handler — no sockets — with at most nproc requests in flight:
// each client submits a spec, follows the NDJSON stream to its terminal
// line and fetches the result.
func (o *outcome) serverDriver(work float64) error {
	clients := min(2, runtime.NumCPU())
	njobs := max(clients, int(serverJobs*work))
	srv, err := server.New(server.Config{Workers: clients})
	if err != nil {
		return err
	}
	defer srv.Close()

	var (
		mu      sync.Mutex
		latency []float64 // submit to result, ms
		lines   int
		first   []byte
		failure error
	)
	jobs := make(chan int, njobs) // holds every job up front so no sender can block
	for i := 0; i < njobs; i++ {
		jobs <- i
	}
	close(jobs)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range jobs {
				ms, n, payload, err := serverJob(srv)
				mu.Lock()
				if err != nil && failure == nil {
					failure = err
				}
				if first == nil {
					first = payload
				}
				if err == nil && !bytes.Equal(first, payload) {
					failure = fmt.Errorf("two jobs of one spec returned different payloads")
				}
				latency = append(latency, ms)
				lines += n
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if failure != nil {
		return fmt.Errorf("bench: job service driver: %w", failure)
	}
	o.add("server.jobs_per_s", "1/s", float64(njobs)/elapsed, njobs)
	o.add("server.submit_to_result_ms", "ms", median(latency), len(latency))
	o.add("server.stream_lines_per_s", "1/s", float64(lines)/elapsed, lines)
	return nil
}

// serverJob runs one job through the handler and returns its submit-to-
// result latency, the stream lines it read, and the result payload.
func serverJob(h http.Handler) (ms float64, lines int, payload []byte, err error) {
	call := func(method, path, body string) (*httptest.ResponseRecorder, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code >= 300 {
			return nil, fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		return rec, nil
	}
	start := time.Now()
	rec, err := call("POST", "/jobs", driverSpec)
	if err != nil {
		return 0, 0, nil, err
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil || sub.ID == "" {
		return 0, 0, nil, fmt.Errorf("submit response %q: %v", rec.Body.String(), err)
	}
	// The stream handler returns at the job's terminal line, so following
	// it is the wait.
	rec, err = call("GET", "/jobs/"+sub.ID+"/stream", "")
	if err != nil {
		return 0, 0, nil, err
	}
	stream := strings.TrimSpace(rec.Body.String())
	lines = strings.Count(stream, "\n") + 1
	if last := stream[strings.LastIndexByte(stream, '\n')+1:]; !strings.Contains(last, `"done"`) {
		return 0, 0, nil, fmt.Errorf("job %s ended with %s", sub.ID, last)
	}
	rec, err = call("GET", "/jobs/"+sub.ID+"/result", "")
	if err != nil {
		return 0, 0, nil, err
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6, lines, rec.Body.Bytes(), nil
}
