package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/provenance"
	"repro/internal/telemetry"
	"repro/internal/telemetry/events"
)

// Config parameterizes a Server. The zero value of every field selects
// the documented default.
type Config struct {
	// QueueDepth bounds the number of jobs waiting for a worker
	// (running jobs do not occupy a slot). When the queue is full, new
	// work is rejected with ErrQueueFull — HTTP 429 — rather than
	// queued into unbounded latency. Default 16.
	QueueDepth int
	// Workers is the number of worker goroutines the daemon runs; the
	// caller must start exactly this many Worker loops, because
	// Shutdown waits for that many exits. Default GOMAXPROCS.
	Workers int
	// Retain bounds how many completed jobs (and their response
	// bytes) stay addressable for /jobs/<id> and request coalescing
	// after they finish. Oldest-finished evicts first. 0 means the
	// default of 64; negative retains nothing, so every identical
	// request re-executes.
	Retain int
	// RetryAfter is the client backoff advertised on 429 and 503
	// responses. Default 1s.
	RetryAfter time.Duration
	// Now supplies timestamps for job status, latency telemetry, and
	// provenance manifests. Response bodies never depend on it. The
	// default is the wall clock; tests inject fakes.
	Now func() time.Time
	// ReadyCheck, when set, gates /healthz readiness: a non-nil error
	// reports the server degraded (HTTP 503 with the reason) without
	// affecting admission. The daemon wires its SLO tracker here so
	// load balancers stop routing to an instance burning its error
	// budget. Nil means always ready.
	ReadyCheck func() error
	// OnJobDone, when set, is called once per worker-completed job
	// (done or failed), after the job reaches its terminal state and
	// outside the server lock. The daemon wires its run-history
	// recorder here to batch records per completed work. Jobs failed
	// administratively by a shutdown deadline — never picked up by a
	// worker — do not fire it. Nil costs nothing on the completion
	// path.
	OnJobDone func()
}

const (
	defaultQueueDepth = 16
	defaultRetain     = 64
	defaultRetryAfter = time.Second
)

// Job states, in lifecycle order.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Job is one admitted request. All fields are guarded by the server's
// mutex; Done() exposes the completion signal.
type Job struct {
	id  string
	req Request

	done     chan struct{}
	state    string
	enqueued time.Time
	started  time.Time
	finished time.Time
	resp     []byte
	err      error
	manifest *provenance.Manifest
	// scope attributes telemetry recorded while this job executes —
	// most importantly the memo caches' hit/miss counters — to this
	// job, so its manifest reports its own cache traffic rather than
	// the process-wide totals.
	scope *telemetry.Scope
}

// ID returns the job's identifier (the canonical request hash).
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Admission errors.
var (
	// ErrQueueFull signals backpressure: the bounded queue has no free
	// slot. HTTP surfaces it as 429 with a Retry-After header.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining signals a shutting-down server that accepts no new
	// work. HTTP surfaces it as 503 with a Retry-After header.
	ErrDraining = errors.New("service: server is draining")
)

// Server is the accordiond core: a bounded job queue with request
// coalescing in front of the deterministic experiment drivers. It
// spawns no goroutines of its own — the daemon runs Config.Workers
// Worker loops — so the package stays out of the scheduler's way and
// inside the determinism analyzer's rules.
type Server struct {
	cfg   Config
	queue chan *Job
	// workerExit receives one token per Worker return; Shutdown drains
	// exactly cfg.Workers of them.
	workerExit chan struct{}

	mu        sync.Mutex
	jobs      map[string]*Job
	retained  []string // completed job ids, oldest-finished first
	inflightN int64    // jobs admitted but not yet terminal
	draining  bool

	requests  *telemetry.Counter
	rejected  *telemetry.Counter
	coalesced *telemetry.Counter
	inflight  *telemetry.Gauge
	latency   *telemetry.Histogram
	runtime   *telemetry.Histogram
	latWin    *telemetry.Window
	runWin    *telemetry.Window
}

// New builds a Server from cfg, applying defaults.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = defaultQueueDepth
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Retain == 0 {
		cfg.Retain = defaultRetain
	} else if cfg.Retain < 0 {
		cfg.Retain = -1
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = defaultRetryAfter
	}
	if cfg.Now == nil {
		// The wall clock feeds status, telemetry and manifests only;
		// response bytes are a pure function of the request.
		cfg.Now = time.Now
	}
	return &Server{
		cfg:        cfg,
		queue:      make(chan *Job, cfg.QueueDepth),
		workerExit: make(chan struct{}, cfg.Workers),
		jobs:       make(map[string]*Job),
		requests:   telemetry.GetCounter("service.requests"),
		rejected:   telemetry.GetCounter("service.rejected"),
		coalesced:  telemetry.GetCounter("service.coalesced"),
		inflight:   telemetry.GetGauge("service.inflight"),
		latency:    telemetry.GetHistogram("service.latency_ns"),
		runtime:    telemetry.GetHistogram("service.run_ns"),
		latWin:     telemetry.GetWindow("service.latency_ns"),
		runWin:     telemetry.GetWindow("service.run_ns"),
	}
}

// Workers returns the number of Worker loops the daemon must run.
func (s *Server) Workers() int { return s.cfg.Workers }

// Admit normalizes req and either attaches it to the identical
// in-flight (or retained) job — request coalescing, reported by the
// second return — or enqueues a new job. It returns ErrQueueFull when
// the bounded queue has no slot and ErrDraining once Shutdown has
// begun; validation errors come from Normalize. Admit never blocks.
func (s *Server) Admit(req Request) (*Job, bool, error) {
	if err := req.Normalize(); err != nil {
		return nil, false, err
	}
	id := req.JobID()
	s.requests.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.rejected.Inc()
		return nil, false, ErrDraining
	}
	if j, ok := s.jobs[id]; ok {
		s.coalesced.Inc()
		return j, true, nil
	}
	j := &Job{
		id:       id,
		req:      req,
		done:     make(chan struct{}),
		state:    StateQueued,
		enqueued: s.cfg.Now(),
		scope:    telemetry.NewScope(),
	}
	select {
	case s.queue <- j:
	default:
		s.rejected.Inc()
		return nil, false, ErrQueueFull
	}
	s.jobs[id] = j
	s.inflightN++
	s.inflight.Set(s.inflightN)
	events.New("job.state").Str("job", id).Str("state", StateQueued).
		Int("queue_len", int64(len(s.queue))).Emit()
	return j, false, nil
}

// Worker runs jobs until the context is cancelled or the queue is
// closed and drained by Shutdown. The daemon must run exactly
// Config.Workers of these on its own goroutines.
func (s *Server) Worker(ctx context.Context) {
	defer func() { s.workerExit <- struct{}{} }()
	for {
		select {
		case <-ctx.Done():
			return
		case j, ok := <-s.queue:
			if !ok {
				return
			}
			s.run(ctx, j)
		}
	}
}

// run executes one job and records its outcome, latency, and
// provenance manifest. The job's telemetry scope rides the context so
// the memo caches attribute their hits and misses to this job; the
// manifest then reports the job's own cache traffic, not the
// process-wide totals.
func (s *Server) run(ctx context.Context, j *Job) {
	s.mu.Lock()
	if j.state != StateQueued {
		// Already failed by a shutdown deadline; nothing to run.
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = s.cfg.Now()
	events.New("job.state").Str("job", j.id).Str("state", StateRunning).
		Int("queued_ms", j.started.Sub(j.enqueued).Milliseconds()).Emit()
	s.mu.Unlock()

	ctx = telemetry.NewScopeContext(ctx, j.scope)
	man := provenance.New("accordiond")
	resp, results, err := Execute(ctx, j.req)
	var body []byte
	if err == nil {
		body, err = resp.Encode()
	}
	for _, r := range results {
		man.AddRunner(r.ID, r.Elapsed, r.Err)
	}
	if err == nil {
		man.AddArtifactBytes("response:"+j.id, body)
	}
	telemetry.CacheCounts(j.scope.Counters(), man.AddCache)
	man.Finish()
	s.finish(j, body, err, man)
	if s.cfg.OnJobDone != nil {
		s.cfg.OnJobDone()
	}
}

// finish moves a job to its terminal state exactly once; late arrivals
// (a worker completing a job a shutdown deadline already failed) are
// dropped.
func (s *Server) finish(j *Job, body []byte, err error, man *provenance.Manifest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed {
		return
	}
	j.finished = s.cfg.Now()
	j.resp = body
	j.err = err
	j.manifest = man
	if err != nil {
		j.state = StateFailed
	} else {
		j.state = StateDone
	}
	s.inflightN--
	s.inflight.Set(s.inflightN)
	latNs := j.finished.Sub(j.enqueued).Nanoseconds()
	s.latency.Observe(latNs)
	var runNs int64
	queued := j.finished.Sub(j.enqueued)
	if !j.started.IsZero() {
		runNs = j.finished.Sub(j.started).Nanoseconds()
		queued = j.started.Sub(j.enqueued)
	}
	if err != nil {
		s.latWin.ObserveErr(latNs)
		s.runWin.ObserveErr(runNs)
	} else {
		s.latWin.Observe(latNs)
		s.runWin.Observe(runNs)
	}
	s.runtime.Observe(runNs)
	events.New("job.state").Str("job", j.id).Str("state", j.state).
		Int("queued_ms", queued.Milliseconds()).
		Int("run_ms", runNs/int64(time.Millisecond)).Emit()
	close(j.done)
	// Retention: failed jobs are always forgotten (a retry should
	// re-execute); completed jobs stay addressable until the retention
	// window evicts them, oldest finish first.
	if err != nil || s.cfg.Retain < 0 {
		delete(s.jobs, j.id)
		return
	}
	s.retained = append(s.retained, j.id)
	for len(s.retained) > s.cfg.Retain {
		delete(s.jobs, s.retained[0])
		s.retained = s.retained[1:]
	}
}

// Lookup returns the job registered under id, if it is still queued,
// running, or retained.
func (s *Server) Lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Inflight returns the number of admitted, non-terminal jobs.
func (s *Server) Inflight() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflightN
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the server: new admissions fail with ErrDraining,
// the queue closes, and Shutdown blocks until every worker has
// finished its in-flight and queued jobs or ctx expires. On deadline,
// jobs that never reached a worker fail with the context's error so no
// waiter hangs, and the context error is returned. Shutdown is
// idempotent; later calls re-wait on nothing and return nil.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	close(s.queue)
	s.mu.Unlock()

	for i := 0; i < s.cfg.Workers; i++ {
		select {
		case <-s.workerExit:
		case <-ctx.Done():
			s.failPending(fmt.Errorf("service: shutdown: %w", ctx.Err()))
			return ctx.Err()
		}
	}
	// Workers exited via their own context before emptying the queue:
	// fail whatever never ran rather than leaving waiters blocked.
	s.failPending(errors.New("service: server shut down before the job ran"))
	return nil
}

// failPending terminates every non-terminal job with err.
func (s *Server) failPending(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, j := range s.jobs {
		if j.state == StateDone || j.state == StateFailed {
			continue
		}
		j.state = StateFailed
		j.finished = s.cfg.Now()
		j.err = err
		s.inflightN--
		events.New("job.state").Str("job", id).Str("state", StateFailed).Emit()
		close(j.done)
		delete(s.jobs, id)
	}
	s.inflight.Set(s.inflightN)
}

// JobSummary is one row of the dashboard's recent-jobs table.
type JobSummary struct {
	ID       string `json:"job_id"`
	Kind     string `json:"kind"`
	State    string `json:"state"`
	QueuedMs int64  `json:"queued_ms"`
	RunMs    int64  `json:"run_ms"`
	Error    string `json:"error,omitempty"`
}

// Summary is the operational snapshot behind /statusz: live queue and
// worker occupancy, the derived backoff, and the most recent jobs —
// active ones first (newest admission first), then retained completed
// ones (newest finish first).
type Summary struct {
	QueueLen  int          `json:"queue_len"`
	QueueCap  int          `json:"queue_cap"`
	Workers   int          `json:"workers"`
	Inflight  int64        `json:"inflight"`
	Draining  bool         `json:"draining"`
	RetrySecs int64        `json:"retry_secs"`
	Recent    []JobSummary `json:"recent,omitempty"`
}

// Summary snapshots the server's operational state; maxRecent bounds
// the job list (non-positive means none).
func (s *Server) Summary(maxRecent int) Summary {
	sum := Summary{RetrySecs: s.retryAfterSecs()}
	s.mu.Lock()
	defer s.mu.Unlock()
	sum.QueueLen = len(s.queue)
	sum.QueueCap = cap(s.queue)
	sum.Workers = s.cfg.Workers
	sum.Inflight = s.inflightN
	sum.Draining = s.draining
	if maxRecent <= 0 {
		return sum
	}
	var active []*Job
	for _, j := range s.jobs {
		if j.state == StateQueued || j.state == StateRunning {
			active = append(active, j)
		}
	}
	sort.Slice(active, func(a, b int) bool {
		if !active[a].enqueued.Equal(active[b].enqueued) {
			return active[a].enqueued.After(active[b].enqueued)
		}
		return active[a].id < active[b].id // stable order for ties
	})
	for _, j := range active {
		if len(sum.Recent) >= maxRecent {
			return sum
		}
		sum.Recent = append(sum.Recent, s.summaryOfLocked(j))
	}
	for i := len(s.retained) - 1; i >= 0 && len(sum.Recent) < maxRecent; i-- {
		if j, ok := s.jobs[s.retained[i]]; ok {
			sum.Recent = append(sum.Recent, s.summaryOfLocked(j))
		}
	}
	return sum
}

// summaryOfLocked condenses one job for the dashboard; the caller
// holds s.mu.
func (s *Server) summaryOfLocked(j *Job) JobSummary {
	js := JobSummary{ID: j.id, Kind: j.req.Kind, State: j.state}
	switch j.state {
	case StateQueued:
		js.QueuedMs = s.cfg.Now().Sub(j.enqueued).Milliseconds()
	case StateRunning:
		js.QueuedMs = j.started.Sub(j.enqueued).Milliseconds()
		js.RunMs = s.cfg.Now().Sub(j.started).Milliseconds()
	default:
		if !j.started.IsZero() {
			js.QueuedMs = j.started.Sub(j.enqueued).Milliseconds()
			js.RunMs = j.finished.Sub(j.started).Milliseconds()
		} else {
			js.QueuedMs = j.finished.Sub(j.enqueued).Milliseconds()
		}
	}
	if j.err != nil {
		js.Error = j.err.Error()
	}
	return js
}

// Mux returns the service's HTTP surface:
//
//	POST /run             submit and wait; the body is the Response
//	POST /jobs            submit without waiting; the body is a status
//	GET  /jobs/{id}       job status (timings, manifest when done)
//	GET  /jobs/{id}/result the completed job's response bytes
//	GET  /healthz         liveness + drain state
//
// The daemon mounts /telemetryz, /metricsz and /eventsz beside these.
func (s *Server) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// maxRequestBytes bounds a request body; a Request is tiny.
const maxRequestBytes = 1 << 20

// admitHTTP decodes, normalizes and admits the request body, writing
// the mapped error response (400/429/503) on failure. The second
// return reports coalescing for the access log.
func (s *Server) admitHTTP(w http.ResponseWriter, r *http.Request) (*Job, bool, bool) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		n := writeError(w, http.StatusBadRequest, fmt.Errorf("service: decoding request: %w", err))
		s.logRequest(r, nil, false, http.StatusBadRequest, n)
		return nil, false, false
	}
	j, coalesced, err := s.Admit(req)
	var status int
	switch {
	case errors.Is(err, ErrQueueFull):
		s.setRetryAfter(w)
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		s.setRetryAfter(w)
		status = http.StatusServiceUnavailable
	case err != nil:
		status = http.StatusBadRequest
	default:
		return j, coalesced, true
	}
	n := writeError(w, status, err)
	s.logRequest(r, nil, false, status, n)
	return nil, false, false
}

// handleRun is the synchronous path: admit, wait, answer with the
// deterministic response bytes.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	j, coalesced, ok := s.admitHTTP(w, r)
	if !ok {
		return
	}
	select {
	case <-r.Context().Done():
		// Client gone; the job keeps running for coalesced waiters.
		return
	case <-j.Done():
	}
	status, n := s.writeResult(w, j)
	s.logRequest(r, j, coalesced, status, n)
}

// handleSubmit is the asynchronous path: admit and answer immediately
// with the job status; poll /jobs/{id} for completion.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	j, coalesced, ok := s.admitHTTP(w, r)
	if !ok {
		return
	}
	status := http.StatusAccepted
	if st := s.statusOf(j); st.State == StateDone || st.State == StateFailed {
		status = http.StatusOK
	}
	n := writeJSON(w, status, s.statusOf(j))
	s.logRequest(r, j, coalesced, status, n)
}

// JobStatus is the /jobs/{id} document.
type JobStatus struct {
	Schema   int                  `json:"schema"`
	JobID    string               `json:"job_id"`
	Kind     string               `json:"kind"`
	State    string               `json:"state"`
	QueuedMs int64                `json:"queued_ms"`
	RunMs    int64                `json:"run_ms,omitempty"`
	Error    string               `json:"error,omitempty"`
	Manifest *provenance.Manifest `json:"manifest,omitempty"`
}

// statusOf snapshots a job under the lock.
func (s *Server) statusOf(j *Job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := JobStatus{
		Schema: SchemaVersion,
		JobID:  j.id,
		Kind:   j.req.Kind,
		State:  j.state,
	}
	switch j.state {
	case StateQueued:
		st.QueuedMs = s.cfg.Now().Sub(j.enqueued).Milliseconds()
	case StateRunning:
		st.QueuedMs = j.started.Sub(j.enqueued).Milliseconds()
		st.RunMs = s.cfg.Now().Sub(j.started).Milliseconds()
	default:
		if !j.started.IsZero() {
			st.QueuedMs = j.started.Sub(j.enqueued).Milliseconds()
			st.RunMs = j.finished.Sub(j.started).Milliseconds()
		} else {
			st.QueuedMs = j.finished.Sub(j.enqueued).Milliseconds()
		}
		st.Manifest = j.manifest
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("service: unknown or evicted job"))
		return
	}
	writeJSON(w, http.StatusOK, s.statusOf(j))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Lookup(r.PathValue("id"))
	if !ok {
		n := writeError(w, http.StatusNotFound, errors.New("service: unknown or evicted job"))
		s.logRequest(r, nil, false, http.StatusNotFound, n)
		return
	}
	s.mu.Lock()
	state := j.state
	s.mu.Unlock()
	if state == StateQueued || state == StateRunning {
		s.setRetryAfter(w)
		n := writeError(w, http.StatusAccepted, errors.New("service: job still "+state))
		s.logRequest(r, j, false, http.StatusAccepted, n)
		return
	}
	status, n := s.writeResult(w, j)
	s.logRequest(r, j, false, status, n)
}

// writeResult answers with a terminal job's outcome: the deterministic
// response bytes, or the execution error. It returns the HTTP status
// and body size for the access log.
func (s *Server) writeResult(w http.ResponseWriter, j *Job) (int, int) {
	s.mu.Lock()
	body, err := j.resp, j.err
	s.mu.Unlock()
	if err != nil {
		return http.StatusInternalServerError, writeError(w, http.StatusInternalServerError, err)
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("X-Job-Id", j.id)
	n, _ := w.Write(body)
	return http.StatusOK, n
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-cache")
	s.mu.Lock()
	doc := struct {
		Status   string `json:"status"`
		Inflight int64  `json:"inflight"`
		Schema   int    `json:"schema"`
		Reason   string `json:"reason,omitempty"`
	}{Status: "ok", Inflight: s.inflightN, Schema: SchemaVersion}
	draining := s.draining
	s.mu.Unlock()
	if draining {
		doc.Status = "draining"
		s.setRetryAfter(w)
		writeJSON(w, http.StatusServiceUnavailable, doc)
		return
	}
	if s.cfg.ReadyCheck != nil {
		if err := s.cfg.ReadyCheck(); err != nil {
			doc.Status = "degraded"
			doc.Reason = err.Error()
			s.setRetryAfter(w)
			writeJSON(w, http.StatusServiceUnavailable, doc)
			return
		}
	}
	writeJSON(w, http.StatusOK, doc)
}

// logRequest emits one "service.request" access-log event: the NDJSON
// line downstream tooling joins against job.state transitions. Nil job
// means the request never produced one (decode error, backpressure,
// unknown id). The event is one atomic load when logging is off.
func (s *Server) logRequest(r *http.Request, j *Job, coalesced bool, status, bytes int) {
	b := events.New("service.request")
	if b == nil {
		return
	}
	b.Str("method", r.Method).Str("path", r.URL.Path).
		Int("status", int64(status)).Int("bytes", int64(bytes))
	if j != nil {
		st := s.statusOf(j)
		var co int64
		if coalesced {
			co = 1
		}
		b.Str("job", j.id).Int("coalesced", co).
			Int("queued_ms", st.QueuedMs).Int("run_ms", st.RunMs)
	}
	b.Emit()
}

// maxRetryAfter caps the derived backoff; beyond a minute the estimate
// says more about a cold window than about the queue.
const maxRetryAfter = 60 * time.Second

// retryAfterSecs derives the client backoff from live state: with a
// warm service-time window, the advertised wait is the time the queue
// needs to drain one slot — mean run time × (queue length + 1) spread
// over the worker pool — clamped to [Config.RetryAfter, 60s]. A cold
// window (service just started, telemetry off, no traffic this past
// minute) falls back to the configured constant.
func (s *Server) retryAfterSecs() int64 {
	minSecs := int64(s.cfg.RetryAfter / time.Second)
	if minSecs < 1 {
		minSecs = 1
	}
	st := s.runWin.Stats(time.Minute)
	if st.Count == 0 {
		return minSecs
	}
	waitNs := st.Mean * float64(len(s.queue)+1) / float64(s.cfg.Workers)
	secs := int64(math.Ceil(waitNs / float64(time.Second)))
	if secs < minSecs {
		secs = minSecs
	}
	if max := int64(maxRetryAfter / time.Second); secs > max {
		secs = max
	}
	return secs
}

// setRetryAfter advertises the derived client backoff (Retry-After has
// whole-second resolution, so at least 1s).
func (s *Server) setRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.FormatInt(s.retryAfterSecs(), 10))
}

func writeJSON(w http.ResponseWriter, status int, doc any) int {
	data, err := json.Marshal(doc)
	if err != nil {
		return writeError(w, http.StatusInternalServerError, err)
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	n, _ := w.Write(append(data, '\n'))
	return n
}

func writeError(w http.ResponseWriter, status int, err error) int {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	doc := struct {
		Error string `json:"error"`
	}{Error: err.Error()}
	data, _ := json.Marshal(doc)
	n, _ := w.Write(append(data, '\n'))
	return n
}
