package serve

// Service lifecycle suite: submit→poll→fetch byte-identity against an
// independently produced SAM baseline, admission control under
// saturation, graceful drain + restart resume (bit-identical, including
// with a per-job fault plan armed), failure isolation across jobs, and
// the typed error surface. Everything runs through httptest against the
// real handler stack — the same mux `repute serve` mounts.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/fmindex"
	"repro/internal/genome"
	"repro/internal/index"
	"repro/internal/mapper"
	"repro/internal/sam"
	"repro/internal/seed"
	"repro/internal/simulate"
	"repro/internal/trace"
)

// TestMain drops every inherited REPUTE_* hook, as cmd/repute's cleanEnv
// does for the binary: jobs here get the fault plan their test gives
// them, so an exported chaos plan (CI's REPUTE_CL_FAULTS) must not arm the
// devices of jobs that are meant to run clean.
func TestMain(m *testing.M) {
	for _, kv := range os.Environ() {
		if name, _, _ := strings.Cut(kv, "="); strings.HasPrefix(name, "REPUTE_") {
			os.Unsetenv(name)
		}
	}
	os.Exit(m.Run())
}

// fixture bundles one reference world shared by a test: the index
// artifact, the FASTQ upload body, and the expected SAM.
type fixture struct {
	file  *index.File
	fastq []byte
	names []string
	reads [][]byte
}

func newFixture(t *testing.T, refLen, nReads int) *fixture {
	t.Helper()
	ref := simulate.Reference(simulate.Chr21Like(refLen, 11))
	set, err := simulate.Reads(ref, nReads, simulate.ERR012100, 12)
	if err != nil {
		t.Fatal(err)
	}
	g, err := genome.New([]string{"chr21s"}, [][]byte{ref})
	if err != nil {
		t.Fatal(err)
	}
	f, err := index.Build(g, 1, 0, fmindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{file: f, reads: set.Reads}
	var fq bytes.Buffer
	for i, r := range set.Reads {
		name := fmt.Sprintf("r%d", i)
		fx.names = append(fx.names, name)
		seq := make([]byte, len(r))
		for j, c := range r {
			seq[j] = "ACGT"[c]
		}
		fmt.Fprintf(&fq, "@%s\n%s\n+\n%s\n", name, seq, strings.Repeat("I", len(seq)))
	}
	fx.fastq = fq.Bytes()
	return fx
}

// baselineSAM produces the expected output through an independent path:
// one in-memory Map over the whole read set, written with the same SAM
// machinery `repute map` uses. Mappings are per-read, so the streamed,
// batched service output must match byte for byte.
func (fx *fixture) baselineSAM(t *testing.T, cigar bool, maxErrors, maxLoc int) []byte {
	t.Helper()
	g, err := genome.FromContigs(fx.file.Meta.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewFromIndex(fx.file.Indexes[0], []*cl.Device{cl.SystemOneCPU()},
		core.Config{Name: "REPUTE", Selector: seed.REPUTE{}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Map(fx.reads, mapper.Options{MaxErrors: maxErrors, MaxLocations: maxLoc})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	refs := make([]sam.RefSeq, len(g.Contigs()))
	for i, c := range g.Contigs() {
		refs[i] = sam.RefSeq{Name: c.Name, Length: c.Length}
	}
	sw, err := sam.NewMultiWriter(&buf, refs)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range fx.names {
		if _, err := WriteReadAlignments(sw, g, p, name, fx.reads[i], res.Mappings[i], cigar, maxErrors); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newServer starts a Server over a fresh single-CPU pool plus an
// httptest front end; mutate cfg defaults through mod.
func newServer(t *testing.T, fx *fixture, spool string, mod func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Index:   fx.file,
		Devices: []*cl.Device{cl.SystemOneCPU()},
		Spool:   spool,
	}
	if mod != nil {
		mod(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJob uploads a FASTQ as a multipart job. Failures come back as an
// error, so client goroutines may call it.
func postJob(url string, fastq []byte, query string, headers map[string]string) (*http.Response, error) {
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	fw, err := mw.CreateFormFile("reads", "reads.fq")
	if err != nil {
		return nil, err
	}
	if _, err := fw.Write(fastq); err != nil {
		return nil, err
	}
	if err := mw.Close(); err != nil {
		return nil, err
	}
	req, err := http.NewRequest("POST", url+"/jobs"+query, &body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", mw.FormDataContentType())
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	return http.DefaultClient.Do(req)
}

// submit is postJob for the test's own goroutine.
func submit(t *testing.T, url string, fastq []byte, query string, headers map[string]string) *http.Response {
	t.Helper()
	resp, err := postJob(url, fastq, query, headers)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decodeJob reads a Job JSON body.
func decodeJob(t *testing.T, resp *http.Response) Job {
	t.Helper()
	defer resp.Body.Close()
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j
}

// awaitState polls a job until it reaches one of the wanted states.
func awaitState(t *testing.T, url, id string, want ...JobState) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		j := decodeJob(t, resp)
		for _, w := range want {
			if j.State == w {
				return j
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q (error %+v), want one of %v", id, j.State, j.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fetchSAM downloads a finished job's SAM bytes.
func fetchSAM(t *testing.T, url, id string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id + "/sam")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET sam: %d: %s", resp.StatusCode, b)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestServeLifecycle is the happy path: submit → poll → fetch, with the
// SAM byte-identical to an in-memory mapping of the same reads, plus
// the observability endpoints.
func TestServeLifecycle(t *testing.T) {
	fx := newFixture(t, 40_000, 40)
	s, ts := newServer(t, fx, t.TempDir(), nil)
	defer s.Drain()

	if got := getStatus(t, ts.URL+"/healthz"); got != http.StatusOK {
		t.Fatalf("healthz = %d", got)
	}
	if got := getStatus(t, ts.URL+"/readyz"); got != http.StatusOK {
		t.Fatalf("readyz = %d, want ready", got)
	}

	resp := submit(t, ts.URL, fx.fastq, "?batch=7", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	j := decodeJob(t, resp)
	if j.ID == "" || j.State != StateQueued {
		t.Fatalf("admitted job = %+v", j)
	}

	done := awaitState(t, ts.URL, j.ID, StateDone, StateFailed)
	if done.State != StateDone {
		t.Fatalf("job failed: %+v", done.Error)
	}
	if done.Reads != len(fx.reads) {
		t.Errorf("job mapped %d reads, want %d", done.Reads, len(fx.reads))
	}

	got := fetchSAM(t, ts.URL, j.ID)
	want := fx.baselineSAM(t, false, 5, 100)
	if !bytes.Equal(got, want) {
		t.Errorf("service SAM differs from in-memory baseline (%d vs %d bytes)", len(got), len(want))
	}

	// Metrics: completed counter and sim-seconds histogram present,
	// deterministic JSON.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap trace.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Counters["serve_jobs_admitted_total"] != 1 || snap.Counters["serve_jobs_completed_total"] != 1 {
		t.Errorf("metrics counters = %v", snap.Counters)
	}
	if snap.Histograms["serve_job_sim_seconds"].Count != 1 {
		t.Errorf("sim-seconds histogram = %+v", snap.Histograms["serve_job_sim_seconds"])
	}

	// Trace export: a non-empty Chrome trace for the job, 404 for ghosts.
	resp, err = http.Get(ts.URL + "/trace/" + j.ID)
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(tb, []byte("traceEvents")) {
		t.Errorf("trace export = %d, %d bytes", resp.StatusCode, len(tb))
	}
	if got := getStatus(t, ts.URL+"/trace/job-999999"); got != http.StatusNotFound {
		t.Errorf("trace for unknown job = %d, want 404", got)
	}
	if got := getStatus(t, ts.URL+"/jobs/job-999999"); got != http.StatusNotFound {
		t.Errorf("status for unknown job = %d, want 404", got)
	}
}

// TestServeAdmissionControl saturates the queue and asserts the 429 +
// Retry-After contract and the readiness flip, for both the depth bound
// and the in-flight byte budget.
func TestServeAdmissionControl(t *testing.T) {
	fx := newFixture(t, 30_000, 24)
	s, ts := newServer(t, fx, t.TempDir(), func(c *Config) {
		c.MaxQueue = 1
		c.StepDelay = 30 * time.Millisecond
	})
	defer s.Drain()

	// First job occupies the runner (StepDelay stretches it), second
	// fills the queue; the third must bounce.
	a := decodeJob(t, submit(t, ts.URL, fx.fastq, "?batch=4", nil))
	awaitState(t, ts.URL, a.ID, StateRunning, StateDone)
	b := decodeJob(t, submit(t, ts.URL, fx.fastq, "?batch=4", nil))

	resp := submit(t, ts.URL, fx.fastq, "?batch=4", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload submit = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	resp.Body.Close()
	if got := getStatus(t, ts.URL+"/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("readyz while saturated = %d, want 503", got)
	}

	// The backlog still completes: bounded queue, not dropped work.
	awaitState(t, ts.URL, a.ID, StateDone)
	awaitState(t, ts.URL, b.ID, StateDone)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap trace.Snapshot
	json.NewDecoder(resp.Body).Decode(&snap) //nolint:errcheck
	resp.Body.Close()
	if snap.Counters["serve_jobs_rejected_total/overload"] == 0 {
		t.Errorf("overload rejections not counted: %v", snap.Counters)
	}

	// Byte budget: a server whose in-flight budget is smaller than one
	// upload rejects immediately even with an empty queue.
	s2, ts2 := newServer(t, fx, t.TempDir(), func(c *Config) {
		c.MaxInflightBytes = int64(len(fx.fastq) / 2)
	})
	defer s2.Drain()
	resp = submit(t, ts2.URL, fx.fastq, "", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("byte-budget submit = %d, want 429", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestServeDrainResume is the graceful-drain contract end to end:
// SIGTERM's Drain interrupts a mid-flight job at a batch boundary with
// a durable checkpoint, readiness flips, admission answers 503, and a
// new server over the same spool resumes and finishes the job with SAM
// byte-identical to an uninterrupted baseline.
func TestServeDrainResume(t *testing.T) {
	fx := newFixture(t, 40_000, 40)
	spool := t.TempDir()
	s, ts := newServer(t, fx, spool, func(c *Config) {
		c.StepDelay = 25 * time.Millisecond
	})

	j := decodeJob(t, submit(t, ts.URL, fx.fastq, "?batch=5", nil))

	// Let it make some progress first so the resume is a true mid-job
	// continuation, not a from-scratch rerun.
	deadline := time.Now().Add(20 * time.Second)
	for {
		cur, _ := s.store.get(j.ID)
		if cur.Reads > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job made no progress")
		}
		time.Sleep(5 * time.Millisecond)
	}

	unfinished := s.Drain()
	if len(unfinished) != 1 || unfinished[0].ID != j.ID {
		t.Fatalf("drain reported %+v, want the in-flight job", unfinished)
	}
	if st := unfinished[0].State; st != StateInterrupted {
		t.Fatalf("drained job state = %q, want interrupted", st)
	}
	if !unfinished[0].Resumable {
		t.Error("drained job not marked resumable")
	}
	if unfinished[0].Reads >= len(fx.reads) {
		t.Fatalf("job finished (%d reads) before drain; widen StepDelay", unfinished[0].Reads)
	}
	if got := getStatus(t, ts.URL+"/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain = %d, want 503", got)
	}
	resp := submit(t, ts.URL, fx.fastq, "", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit during drain = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	ts.Close()

	// Restart over the same spool: the job re-queues and completes.
	s2, ts2 := newServer(t, fx, spool, nil)
	defer s2.Drain()
	done := awaitState(t, ts2.URL, j.ID, StateDone, StateFailed)
	if done.State != StateDone {
		t.Fatalf("resumed job failed: %+v", done.Error)
	}
	got := fetchSAM(t, ts2.URL, j.ID)
	want := fx.baselineSAM(t, false, 5, 100)
	if !bytes.Equal(got, want) {
		t.Errorf("resumed SAM differs from uninterrupted baseline (%d vs %d bytes)", len(got), len(want))
	}

	resp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap trace.Snapshot
	json.NewDecoder(resp.Body).Decode(&snap) //nolint:errcheck
	resp.Body.Close()
	if snap.Counters["serve_jobs_resumed_total"] == 0 {
		t.Errorf("resume not counted: %v", snap.Counters)
	}
}

// TestServeChaosRecoversBitIdentical arms a per-job fault plan via the
// X-Repute-Faults header — transient OOM, allocation failure, thermal
// throttling — and asserts the round engine recovers the job to SAM
// byte-identical with the clean baseline, with the chaos visible in the
// job's folded metrics and scoped to that one job.
func TestServeChaosRecoversBitIdentical(t *testing.T) {
	fx := newFixture(t, 40_000, 40)
	s, ts := newServer(t, fx, t.TempDir(), nil)
	defer s.Drain()

	hdr := map[string]string{"X-Repute-Faults": "enq2=oor,alloc3=alloc,throttle1-2=0.5"}
	j := decodeJob(t, submit(t, ts.URL, fx.fastq, "?batch=7", hdr))
	done := awaitState(t, ts.URL, j.ID, StateDone, StateFailed)
	if done.State != StateDone {
		t.Fatalf("chaos job failed: %+v", done.Error)
	}
	if !bytes.Equal(fetchSAM(t, ts.URL, j.ID), fx.baselineSAM(t, false, 5, 100)) {
		t.Error("chaos-run SAM differs from clean baseline")
	}

	// A clean job right after must see zero injected faults: the plan
	// died with the job that carried it.
	for _, d := range s.devices {
		if d.FaultsInstalled() {
			t.Fatal("fault plan still armed after job completion")
		}
	}
	clean := decodeJob(t, submit(t, ts.URL, fx.fastq, "?batch=7", nil))
	cleanDone := awaitState(t, ts.URL, clean.ID, StateDone, StateFailed)
	if cleanDone.State != StateDone {
		t.Fatalf("clean follow-up job failed: %+v", cleanDone.Error)
	}

	// A malformed plan is rejected at admission, typed 400.
	resp := submit(t, ts.URL, fx.fastq, "", map[string]string{"X-Repute-Faults": "enq0=banana"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad fault plan = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestServeRetryBudgetAndIsolation exhausts a job's retry budget with a
// persistent injected device loss (single-device pool, so no failover)
// and asserts the job fails alone with the typed cl error while the
// pool stays healthy for the next job.
func TestServeRetryBudgetAndIsolation(t *testing.T) {
	fx := newFixture(t, 30_000, 24)
	s, ts := newServer(t, fx, t.TempDir(), func(c *Config) {
		c.RetryBudget = 1
	})
	defer s.Drain()

	hdr := map[string]string{"X-Repute-Faults": "enq1=lost"}
	j := decodeJob(t, submit(t, ts.URL, fx.fastq, "?batch=6", hdr))
	failed := awaitState(t, ts.URL, j.ID, StateDone, StateFailed)
	if failed.State != StateFailed {
		t.Fatalf("device-loss job = %q, want failed", failed.State)
	}
	if failed.Error == nil || failed.Error.Kind != "cl" || !failed.Error.DeviceLost {
		t.Fatalf("typed error = %+v, want cl device-loss", failed.Error)
	}
	if failed.Error.Code != "CL_DEVICE_NOT_AVAILABLE" {
		t.Errorf("error code = %q", failed.Error.Code)
	}
	if failed.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (budget 1 retry)", failed.Attempts)
	}

	// The pool heals: the very next job completes on the same device.
	clean := decodeJob(t, submit(t, ts.URL, fx.fastq, "?batch=6", nil))
	cleanDone := awaitState(t, ts.URL, clean.ID, StateDone, StateFailed)
	if cleanDone.State != StateDone {
		t.Fatalf("follow-up job failed after device-loss job: %+v", cleanDone.Error)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap trace.Snapshot
	json.NewDecoder(resp.Body).Decode(&snap) //nolint:errcheck
	resp.Body.Close()
	if snap.Counters["serve_jobs_retried_total"] != 1 || snap.Counters["serve_jobs_failed_total"] != 1 {
		t.Errorf("retry/failure accounting = %v", snap.Counters)
	}
}

// TestServeBadInputFailsWithoutRetry submits garbage and expects a
// typed input failure that does not burn the retry budget.
func TestServeBadInputFailsWithoutRetry(t *testing.T) {
	fx := newFixture(t, 30_000, 8)
	s, ts := newServer(t, fx, t.TempDir(), nil)
	defer s.Drain()

	j := decodeJob(t, submit(t, ts.URL, []byte("this is not fastq\n"), "", nil))
	failed := awaitState(t, ts.URL, j.ID, StateDone, StateFailed)
	if failed.State != StateFailed {
		t.Fatalf("garbage job = %q, want failed", failed.State)
	}
	if failed.Error == nil || failed.Error.Kind != "input" {
		t.Errorf("typed error = %+v, want kind input", failed.Error)
	}
	if failed.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (input errors don't retry)", failed.Attempts)
	}
}

// TestServeDeadline gives a job an impossible deadline and expects a
// typed deadline failure with no retry.
func TestServeDeadline(t *testing.T) {
	fx := newFixture(t, 30_000, 24)
	s, ts := newServer(t, fx, t.TempDir(), func(c *Config) {
		c.StepDelay = 50 * time.Millisecond
	})
	defer s.Drain()

	j := decodeJob(t, submit(t, ts.URL, fx.fastq, "?batch=2&deadline_ms=1", nil))
	failed := awaitState(t, ts.URL, j.ID, StateDone, StateFailed)
	if failed.State != StateFailed {
		t.Fatalf("deadline job = %q, want failed", failed.State)
	}
	if failed.Error == nil || failed.Error.Kind != "deadline" {
		t.Errorf("typed error = %+v, want kind deadline", failed.Error)
	}
	if failed.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (deadline failures don't retry)", failed.Attempts)
	}
}

// TestServePrefilter submits a job with the GateKeeper pre-alignment
// filter enabled: the SAM must stay byte-identical to the unfiltered
// in-memory baseline (the filter's superset invariant, end to end), the
// filter configuration must persist in job.json, and the filter's
// counters must fold into /metrics. A bad filter name is a 400.
func TestServePrefilter(t *testing.T) {
	fx := newFixture(t, 40_000, 40)
	s, ts := newServer(t, fx, t.TempDir(), nil)
	defer s.Drain()

	resp := submit(t, ts.URL, fx.fastq, "?batch=7&prefilter=gatekeeper", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	j := decodeJob(t, resp)
	if j.Prefilter != mapper.PrefilterGateKeeper {
		t.Fatalf("admitted job prefilter = %q, want %q", j.Prefilter, mapper.PrefilterGateKeeper)
	}
	done := awaitState(t, ts.URL, j.ID, StateDone, StateFailed)
	if done.State != StateDone {
		t.Fatalf("job failed: %+v", done.Error)
	}
	got := fetchSAM(t, ts.URL, j.ID)
	want := fx.baselineSAM(t, false, 5, 100)
	if !bytes.Equal(got, want) {
		t.Errorf("filtered service SAM differs from unfiltered baseline (%d vs %d bytes)", len(got), len(want))
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap trace.Snapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if _, ok := snap.Counters["prefilter_rejected_total"]; !ok {
		t.Error("prefilter_rejected_total not folded into /metrics")
	}
	if _, ok := snap.Counters["prefilter_false_accepts_total"]; !ok {
		t.Error("prefilter_false_accepts_total not folded into /metrics")
	}

	bad := submit(t, ts.URL, fx.fastq, "?prefilter=grim", nil)
	defer bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("bad prefilter = %d, want 400", bad.StatusCode)
	}
}
