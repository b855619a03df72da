// Package serve is the mapping service: a zero-dependency net/http
// front end that accepts FASTQ mapping jobs, schedules them — FIFO in
// admission order — onto disjoint partitions of a shared, index-loaded
// device pool, runs up to MaxConcurrent at once through
// core.Pipeline.MapStream, and serves back SAM. Robustness is the
// package's contract, not a feature flag:
//
//   - Admission control: a bounded queue (depth + in-flight byte
//     budget) that answers 429 with Retry-After instead of queueing
//     unboundedly, and 503 once draining. Retry-After spreads
//     synchronized clients with deterministic jitter.
//   - Failure isolation: each job's fault plan (X-Repute-Faults) is
//     armed only on that job's partition for its attempts and disarmed
//     after, so an injected device loss never poisons a concurrent or
//     subsequent job.
//   - Device health: every pool device carries a circuit breaker fed by
//     the typed fault taxonomy and a simulated-time hang watchdog.
//     Quarantined (open-breaker) devices are excluded from new
//     partitions until a half-open canary job readmits them; jobs queue
//     only while no healthy device is free. DESIGN.md §17.
//   - Retry budgets: a failing job is re-queued (resuming from its own
//     checkpoint) until its attempts exceed the budget, then fails
//     alone with a typed error from the cl taxonomy.
//   - Graceful drain: SIGTERM (via Drain) stops admission, interrupts
//     in-flight jobs at a batch boundary after their checkpoints are
//     durable, and reports what is resumable; restarting over the same
//     spool re-queues unfinished jobs and produces byte-identical SAM.
//
// DESIGN.md §14 documents the protocol; the CLI front end is
// `repute serve`.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cl"
	"repro/internal/genome"
	"repro/internal/index"
	"repro/internal/mapper"
	"repro/internal/trace"
)

// Metric names (tracedisc-checked: snake_case families, counters end
// in _total before any "/" label segment).
const (
	metricJobsAdmitted    = "serve_jobs_admitted_total"
	metricJobsRejected    = "serve_jobs_rejected_total" // + "/overload" | "/draining"
	metricJobsCompleted   = "serve_jobs_completed_total"
	metricJobsFailed      = "serve_jobs_failed_total"
	metricJobsRetried     = "serve_jobs_retried_total"
	metricJobsResumed     = "serve_jobs_resumed_total"
	metricJobsInterrupted = "serve_jobs_interrupted_total"
	metricQueueDepth      = "serve_queue_depth"
	metricInflightBytes   = "serve_inflight_bytes"
	metricReady           = "serve_ready"
	metricJobsRunning     = "serve_jobs_running"
	metricJobSimSeconds   = "serve_job_sim_seconds"
	metricBreakerState    = "device_breaker_state" // + "/<device>"; 0 closed, 1 half-open, 2 open
)

// Config wires a Server. Index, Devices and Spool are required; zero
// values elsewhere select the documented defaults.
type Config struct {
	// Index is the loaded reference index artifact all jobs map against.
	Index *index.File
	// Devices is the shared device pool.
	Devices []*cl.Device
	// Spool is the job spool directory: one subdirectory per job holding
	// the upload, the output SAM, the checkpoint and the job metadata.
	Spool string
	// MaxQueue bounds the number of queued jobs (default 8); MaxInflightBytes
	// bounds the summed upload bytes of admitted-but-unfinished jobs
	// (default 256 MiB). Exceeding either rejects with 429.
	MaxQueue         int
	MaxInflightBytes int64
	// MaxUploadBytes bounds a single upload (default 64 MiB).
	MaxUploadBytes int64
	// DefaultBatch is the streaming batch size when a job does not set
	// ?batch= (default 512).
	DefaultBatch int
	// RetryBudget is how many times a failed attempt may be re-queued
	// before the job fails for good (default 2: up to 3 attempts).
	RetryBudget int
	// MaxConcurrent bounds how many jobs run at once over disjoint
	// device partitions (default min(4, len(Devices))). 1 restores the
	// strict one-at-a-time FIFO.
	MaxConcurrent int
	// WatchdogFactor is the hang-watchdog multiple armed on every pool
	// device: an enqueue overrunning factor × its cost-model expectation
	// is terminated with a typed transient fault. 0 selects the default
	// of 8; negative disables the watchdog.
	WatchdogFactor float64
	// MaxErrors and MaxLocations are the mapping options (defaults 5 and
	// 100, matching `repute map`).
	MaxErrors    int
	MaxLocations int
	// StepDelay inserts a pause after every batch — a test hook to make
	// drain and overload windows wide enough to hit deterministically.
	StepDelay time.Duration
}

// Server is the mapping service. Create with New, mount via Handler,
// shut down with Drain.
type Server struct {
	cfg     Config
	file    *index.File
	g       *genome.Genome
	digest  [32]byte
	devices []*cl.Device
	reg     *trace.Registry
	store   *store
	mux     *http.ServeMux

	alloc *allocator

	draining   atomic.Bool
	active     atomic.Int32  // jobs currently running on workers
	rejectSeq  atomic.Uint64 // monotonic 429 counter, the Retry-After jitter source
	stopCh     chan struct{}
	wake       chan struct{}
	runnerDone chan struct{}

	mu        sync.Mutex
	recorders map[string]*trace.Recorder // guarded by mu; per-job, in-memory only
}

// New builds a Server over a loaded index artifact and starts its
// scheduler. The spool directory is created if missing and probed for
// writability up front (a typed *checkpoint.DirError otherwise — the
// service refuses to start rather than fail on the first checkpoint).
// Unfinished jobs found in the spool are re-queued in admission order.
func New(cfg Config) (*Server, error) {
	if cfg.Index == nil || len(cfg.Index.Indexes) == 0 {
		return nil, fmt.Errorf("serve: config needs a loaded index")
	}
	if len(cfg.Devices) == 0 {
		return nil, fmt.Errorf("serve: config needs at least one device")
	}
	if cfg.Spool == "" {
		return nil, fmt.Errorf("serve: config needs a spool directory")
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 8
	}
	if cfg.MaxInflightBytes <= 0 {
		cfg.MaxInflightBytes = 256 << 20
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = 64 << 20
	}
	if cfg.DefaultBatch <= 0 {
		cfg.DefaultBatch = 512
	}
	if cfg.RetryBudget < 0 {
		cfg.RetryBudget = 0
	} else if cfg.RetryBudget == 0 {
		cfg.RetryBudget = 2
	}
	if cfg.MaxErrors <= 0 {
		cfg.MaxErrors = 5
	}
	if cfg.MaxLocations <= 0 {
		cfg.MaxLocations = 100
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = len(cfg.Devices)
		if cfg.MaxConcurrent > 4 {
			cfg.MaxConcurrent = 4
		}
	}
	switch {
	case cfg.WatchdogFactor == 0:
		cfg.WatchdogFactor = 8
	case cfg.WatchdogFactor < 0:
		cfg.WatchdogFactor = 0
	}
	// Device health is always on in the service: every pool device gets
	// a circuit breaker (default thresholds) and the hang watchdog. The
	// allocator and the half-open canary flow handle readmission.
	for _, d := range cfg.Devices {
		d.EnableBreaker(cl.BreakerConfig{})
		d.SetWatchdog(cfg.WatchdogFactor)
	}

	g, err := genome.FromContigs(cfg.Index.Meta.Contigs)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Spool, 0o755); err != nil {
		return nil, fmt.Errorf("serve: spool: %w", err)
	}
	if err := checkpoint.CheckDir(cfg.Spool); err != nil {
		return nil, err
	}
	st, err := newStore(cfg.Spool)
	if err != nil {
		return nil, err
	}

	s := &Server{
		cfg:        cfg,
		file:       cfg.Index,
		g:          g,
		digest:     cfg.Index.Digest(),
		devices:    cfg.Devices,
		reg:        trace.NewRegistry(),
		store:      st,
		alloc:      newAllocator(cfg.Devices),
		stopCh:     make(chan struct{}),
		wake:       make(chan struct{}, 1),
		runnerDone: make(chan struct{}),
		recorders:  map[string]*trace.Recorder{},
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/sam", s.handleSAM)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /trace/{id}", s.handleTrace)
	s.updateGauges()
	go s.runner()
	return s, nil
}

// Handler is the service's HTTP handler, for mounting under an
// http.Server or httptest.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Queued reports how many jobs are waiting (not running, not finished).
func (s *Server) Queued() int { n, _ := s.store.depth(); return n }

// Drain performs the graceful-shutdown protocol: flip readiness off and
// stop admitting (503), let the in-flight job checkpoint and stop at
// its next batch boundary, stop the scheduler, and return every job
// that is not in a terminal-success state — the resume hints. Blocks
// until the scheduler has exited; safe to call once.
func (s *Server) Drain() []Job {
	if s.draining.CompareAndSwap(false, true) {
		s.updateGauges()
		close(s.stopCh)
	}
	<-s.runnerDone
	var unfinished []Job
	for _, j := range s.store.snapshotJobs() {
		if j.State != StateDone && j.State != StateFailed {
			unfinished = append(unfinished, j)
		}
	}
	return unfinished
}

// setRecorder publishes a job's in-memory trace recorder (latest
// attempt wins). Recorders are not persisted: after a restart,
// /trace/{id} for an old job is a 404.
func (s *Server) setRecorder(id string, rec *trace.Recorder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recorders[id] = rec
}

// recorder fetches a job's trace recorder.
func (s *Server) recorder(id string) (*trace.Recorder, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.recorders[id]
	return rec, ok
}

// ready is the readiness predicate: not draining and room in the queue.
func (s *Server) ready() bool {
	if s.draining.Load() {
		return false
	}
	n, b := s.store.depth()
	return n < s.cfg.MaxQueue && b < s.cfg.MaxInflightBytes
}

// updateGauges refreshes the queue-shaped and health gauges after any
// transition.
func (s *Server) updateGauges() {
	n, b := s.store.depth()
	s.reg.Gauge(metricQueueDepth).Set(float64(n))
	s.reg.Gauge(metricInflightBytes).Set(float64(b))
	s.reg.Gauge(metricJobsRunning).Set(float64(s.active.Load()))
	ready := 0.0
	if s.ready() {
		ready = 1.0
	}
	s.reg.Gauge(metricReady).Set(ready)
	for _, d := range s.devices {
		s.reg.Gauge(metricBreakerState + "/" + d.Name).Set(float64(d.BreakerState()))
	}
}

// writeJSON writes v as indented JSON with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone is not our error
}

// apiError is the JSON error envelope for request-level failures.
type apiError struct {
	Error string `json:"error"`
}

// handleSubmit is POST /jobs: admission control, upload spooling, job
// creation. Responds 202 with the job JSON, 400 on a bad request, 413
// on an oversized upload, 429 (Retry-After) on overload, 503 while
// draining.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.reg.Counter(metricJobsRejected + "/draining").Add(1)
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "draining: not admitting new jobs"})
		return
	}

	job := Job{Batch: s.cfg.DefaultBatch, Devices: 1}
	q := r.URL.Query()
	if v := q.Get("devices"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > len(s.devices) {
			writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf(
				"bad devices %q (want 1..%d)", v, len(s.devices))})
			return
		}
		job.Devices = n
	}
	if v := q.Get("batch"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("bad batch %q (want integer > 0)", v)})
			return
		}
		job.Batch = n
	}
	if v := q.Get("cigar"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("bad cigar %q", v)})
			return
		}
		job.Cigar = b
	}
	if v := q.Get("prefilter"); v != "" {
		switch v {
		case mapper.PrefilterOff, mapper.PrefilterGateKeeper:
			job.Prefilter = v
		default:
			writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("bad prefilter %q (want %s or %s)",
				v, mapper.PrefilterOff, mapper.PrefilterGateKeeper)})
			return
		}
	}
	if v := q.Get("deadline_ms"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 {
			writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("bad deadline_ms %q (want integer ms > 0)", v)})
			return
		}
		job.DeadlineMS = n
	}
	if fp := r.Header.Get("X-Repute-Faults"); fp != "" {
		plan, err := cl.ParseFaultPlan(fp)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
			return
		}
		if plan.Device > job.Devices {
			writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf(
				"fault directive device=%d exceeds the job's %d-device partition", plan.Device, job.Devices)})
			return
		}
		job.Faults = fp
	}

	// Fast-path overload check before reading the body; the admit call
	// below re-checks under the store lock once the size is known.
	if n, b := s.store.depth(); n >= s.cfg.MaxQueue || b >= s.cfg.MaxInflightBytes {
		s.rejectOverload(w, n)
		return
	}

	// Spool the upload to a temp file in the spool root; it becomes the
	// job's reads.fq only after admission succeeds.
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	file, _, err := r.FormFile("reads")
	if err != nil {
		status := http.StatusBadRequest
		if _, ok := err.(*http.MaxBytesError); ok {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, apiError{Error: fmt.Sprintf("multipart field \"reads\": %v", err)})
		return
	}
	defer file.Close()
	tmp, err := os.CreateTemp(s.cfg.Spool, ".upload-*")
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	tmpName := tmp.Name()
	size, err := io.Copy(tmp, file)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		status := http.StatusInternalServerError
		if _, ok := err.(*http.MaxBytesError); ok {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, apiError{Error: err.Error()})
		return
	}

	admitted, depth, ok := s.store.admit(job, size, s.cfg.MaxQueue, s.cfg.MaxInflightBytes)
	if !ok {
		os.Remove(tmpName)
		s.rejectOverload(w, depth)
		return
	}
	// The job becomes visible to the dispatcher only at enqueue, after
	// its directory, reads.fq and first job.json exist (DESIGN.md §14).
	err = os.MkdirAll(s.store.jobDir(admitted.ID), 0o755)
	if err == nil {
		err = os.Rename(tmpName, s.store.readsPath(admitted.ID))
	}
	if err != nil {
		s.store.release(admitted)
	} else {
		err = s.store.enqueue(admitted)
	}
	if err != nil {
		os.Remove(tmpName)
		os.RemoveAll(s.store.jobDir(admitted.ID))
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}

	s.reg.Counter(metricJobsAdmitted).Add(1)
	s.updateGauges()
	select {
	case s.wake <- struct{}{}:
	default:
	}
	writeJSON(w, http.StatusAccepted, admitted)
}

// rejectOverload answers 429 with a Retry-After proportional to the
// backlog — the contract that the queue never grows unboundedly. The
// base delay (current queue depth) is spread with deterministic jitter
// over [base, 2*base] so a herd of synchronized clients does not come
// back in one stampede: the jitter source is a monotonic rejection
// counter, not a clock or math/rand, keeping replays reproducible.
func (s *Server) rejectOverload(w http.ResponseWriter, depth int) {
	s.reg.Counter(metricJobsRejected + "/overload").Add(1)
	base := depth
	if base < 1 {
		base = 1
	}
	n := s.rejectSeq.Add(1)
	retry := base + int(n%uint64(base+1))
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	writeJSON(w, http.StatusTooManyRequests, apiError{Error: "queue full: retry later"})
}

// handleList is GET /jobs: all jobs in admission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.snapshotJobs())
}

// handleStatus is GET /jobs/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, j)
}

// handleSAM is GET /jobs/{id}/sam: the finished job's SAM output. A job
// that is not done yet answers 409 with its current state.
func (s *Server) handleSAM(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	if j.State != StateDone {
		writeJSON(w, http.StatusConflict, j)
		return
	}
	f, err := os.Open(s.store.samPath(j.ID))
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%s", filepath.Base(s.store.samPath(j.ID))))
	io.Copy(w, f) //nolint:errcheck // client gone is not our error
}

// handleHealthz is GET /healthz: liveness — the process answers.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is GET /readyz: readiness — flips to 503 while draining
// or when admission control would reject the next job anyway.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case !s.ready():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "overloaded")
	default:
		fmt.Fprintln(w, "ready")
	}
}

// handleMetrics is GET /metrics: the service registry (scheduler
// counters and gauges plus every finished attempt's folded pipeline
// metrics) as deterministic JSON, or — with ?format=prom — as the
// Prometheus text exposition format for scrapers.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.updateGauges()
	snap := s.reg.Snapshot()
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		snap.WriteJSON(w) //nolint:errcheck // client gone is not our error
	case "prom":
		w.Header().Set("Content-Type", trace.PrometheusContentType)
		snap.WritePrometheus(w) //nolint:errcheck // client gone is not our error
	default:
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf(
			"bad format %q (want json or prom)", format)})
	}
}

// handleTrace is GET /trace/{id}: the job's latest attempt as a Chrome
// trace-event file. Recorders live in memory only, so jobs from before
// a restart answer 404.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.recorder(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no trace for job (traces are in-memory and per-process)"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	trace.WriteChromeTrace(w, rec) //nolint:errcheck // client gone is not our error
}
