package serve

// Device-health and concurrent-scheduling suite: two jobs on disjoint
// partitions while one partition loses a device mid-job (watchdog kills
// first, breaker trips, failover inside the partition), the half-open
// canary readmission, the Retry-After jitter contract under two
// synchronized saturated clients, the Prometheus metrics format, and
// the ?devices= validation surface.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cl"
	"repro/internal/trace"
)

// threeDevicePool builds a pool of three identical renamed CPUs so the
// allocator can carve disjoint partitions and tests can name devices in
// fault plans and gauge assertions.
func threeDevicePool() []*cl.Device {
	names := []string{"pool-0", "pool-1", "pool-2"}
	devs := make([]*cl.Device, len(names))
	for i, n := range names {
		d := cl.SystemOneCPU()
		d.Name = n
		devs[i] = d
	}
	return devs
}

// metricsSnapshot fetches /metrics as a decoded JSON snapshot and holds
// its names to the metric naming convention.
func metricsSnapshot(t *testing.T, url string) trace.Snapshot {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap trace.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	checkMetricNames(t, snap)
	return snap
}

// metricFamilyRe is the snake_case shape of a metric family, the part
// of a name before the first "/".
var metricFamilyRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// checkMetricNames holds a snapshot to the naming convention
// internal/trace's derivation tests hold the recorder to: every family
// is snake_case, counter families end in _total, and gauge and
// histogram families do not.
func checkMetricNames(t *testing.T, snap trace.Snapshot) {
	t.Helper()
	check := func(kind, name string, counter bool) {
		t.Helper()
		family, _, _ := strings.Cut(name, "/")
		if !metricFamilyRe.MatchString(family) {
			t.Errorf("%s %q: family %q is not snake_case", kind, name, family)
		} else if strings.HasSuffix(family, "_total") != counter {
			t.Errorf("%s %q: only counter families end in _total", kind, name)
		}
	}
	for name := range snap.Counters {
		check("counter", name, true)
	}
	for name := range snap.Gauges {
		check("gauge", name, false)
	}
	for name := range snap.Histograms {
		check("histogram", name, false)
	}
}

// TestServeConcurrentChaosPartitions is the end-to-end health story.
// Job A takes a two-device partition and carries a fault plan scoped to
// its second device: two throttled enqueues slow enough that the hang
// watchdog terminates them, then a device loss. The breaker on that
// device trips open, the job fails over inside its own partition, and
// job B — running concurrently on the remaining device — never sees any
// of it. Both SAMs must be byte-identical to the clean serial baseline.
// A follow-up job that needs the whole pool forces the quarantined
// device through the half-open canary and back to closed.
func TestServeConcurrentChaosPartitions(t *testing.T) {
	fx := newFixture(t, 40_000, 40)
	pool := threeDevicePool()
	s, ts := newServer(t, fx, t.TempDir(), func(c *Config) {
		c.Devices = pool
		c.StepDelay = 15 * time.Millisecond
	})
	defer s.Drain()

	// Watchdog math: SystemOneCPU has no fixed launch overhead, so a
	// throttle of 0.04 makes the enqueue take 25× its expected makespan —
	// past the default watchdog factor of 8. Two kills score the breaker;
	// the third enqueue's device loss trips it open immediately.
	hdr := map[string]string{"X-Repute-Faults": "device=2,throttle1-2=0.04,enq3=lost"}
	a := decodeJob(t, submit(t, ts.URL, fx.fastq, "?batch=7&devices=2", hdr))
	b := decodeJob(t, submit(t, ts.URL, fx.fastq, "?batch=7", nil))

	// Both jobs must actually overlap: disjoint partitions, one scheduler.
	deadline := time.Now().Add(20 * time.Second)
	for {
		ja, _ := s.store.get(a.ID)
		jb, _ := s.store.get(b.ID)
		if ja.State == StateRunning && jb.State == StateRunning {
			break
		}
		if ja.State == StateDone && jb.State == StateDone {
			t.Log("jobs finished before overlap was observed; widen StepDelay to tighten this")
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never ran concurrently: A=%q B=%q", ja.State, jb.State)
		}
		time.Sleep(2 * time.Millisecond)
	}

	doneA := awaitState(t, ts.URL, a.ID, StateDone, StateFailed)
	doneB := awaitState(t, ts.URL, b.ID, StateDone, StateFailed)
	if doneA.State != StateDone {
		t.Fatalf("chaos job failed: %+v", doneA.Error)
	}
	if doneB.State != StateDone {
		t.Fatalf("concurrent clean job failed: %+v", doneB.Error)
	}
	if len(doneA.Partition) != 2 {
		t.Errorf("job A partition = %v, want 2 devices", doneA.Partition)
	}
	if len(doneB.Partition) != 1 {
		t.Errorf("job B partition = %v, want 1 device", doneB.Partition)
	}

	want := fx.baselineSAM(t, false, 5, 100)
	if !bytes.Equal(fetchSAM(t, ts.URL, a.ID), want) {
		t.Error("chaos job SAM differs from clean serial baseline")
	}
	if !bytes.Equal(fetchSAM(t, ts.URL, b.ID), want) {
		t.Error("concurrent clean job SAM differs from clean serial baseline")
	}

	// The lost device's breaker is open — quarantined out of new
	// partitions — and the health counters surfaced in /metrics.
	lost := doneA.Partition[1]
	var lostDev *cl.Device
	for _, d := range pool {
		if d.Name == lost {
			lostDev = d
		}
	}
	if lostDev == nil {
		t.Fatalf("partition device %q not in pool", lost)
	}
	if st := lostDev.BreakerState(); st != cl.BreakerOpen {
		t.Fatalf("lost device breaker = %v, want open", st)
	}
	snap := metricsSnapshot(t, ts.URL)
	if snap.Counters["watchdog_fired_total"] < 2 {
		t.Errorf("watchdog_fired_total = %d, want >= 2", snap.Counters["watchdog_fired_total"])
	}
	if snap.Counters["device_quarantined_total"] == 0 {
		t.Error("device_quarantined_total = 0, want breaker trip counted")
	}
	if got := snap.Gauges["device_breaker_state/"+lost]; got != float64(cl.BreakerOpen) {
		t.Errorf("device_breaker_state/%s = %v, want %v (open)", lost, got, float64(cl.BreakerOpen))
	}

	// A whole-pool job cannot run on two healthy devices: the allocator's
	// pass-over ticks the open breaker half-open and admits it as the
	// partition's canary. Its first clean enqueue closes the breaker.
	canary := decodeJob(t, submit(t, ts.URL, fx.fastq, "?batch=7&devices=3", nil))
	canaryDone := awaitState(t, ts.URL, canary.ID, StateDone, StateFailed)
	if canaryDone.State != StateDone {
		t.Fatalf("canary job failed: %+v", canaryDone.Error)
	}
	if !bytes.Equal(fetchSAM(t, ts.URL, canary.ID), want) {
		t.Error("canary job SAM differs from clean serial baseline")
	}
	if st := lostDev.BreakerState(); st != cl.BreakerClosed {
		t.Fatalf("breaker after canary = %v, want closed (readmitted)", st)
	}
	snap = metricsSnapshot(t, ts.URL)
	if snap.Counters["device_readmitted_total"] == 0 {
		t.Error("device_readmitted_total = 0, want canary readmission counted")
	}
	if got := snap.Gauges["device_breaker_state/"+lost]; got != float64(cl.BreakerClosed) {
		t.Errorf("device_breaker_state/%s = %v after readmission, want 0", lost, got)
	}
}

// TestServeRetryAfterJitter saturates the queue and has two
// synchronized clients bounce off it back to back: their Retry-After
// values must differ (deterministic jitter spreads the stampede) while
// both stay within the documented [depth, 2*depth] span.
func TestServeRetryAfterJitter(t *testing.T) {
	fx := newFixture(t, 30_000, 24)
	s, ts := newServer(t, fx, t.TempDir(), func(c *Config) {
		c.MaxQueue = 1
		c.StepDelay = 30 * time.Millisecond
	})
	defer s.Drain()

	// Occupy the runner, then fill the single queue slot.
	a := decodeJob(t, submit(t, ts.URL, fx.fastq, "?batch=4", nil))
	awaitState(t, ts.URL, a.ID, StateRunning, StateDone)
	b := decodeJob(t, submit(t, ts.URL, fx.fastq, "?batch=4", nil))

	retryAfter := func() int {
		resp := submit(t, ts.URL, fx.fastq, "?batch=4", nil)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("saturated submit = %d, want 429", resp.StatusCode)
		}
		n, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil {
			t.Fatalf("Retry-After %q: %v", resp.Header.Get("Retry-After"), err)
		}
		return n
	}
	first := retryAfter()
	second := retryAfter()
	if first == second {
		t.Errorf("two synchronized clients got identical Retry-After %d: no jitter, hello stampede", first)
	}
	for _, got := range []int{first, second} {
		if got < 1 || got > 2 {
			t.Errorf("Retry-After = %d, want within [depth, 2*depth] = [1, 2]", got)
		}
	}

	awaitState(t, ts.URL, a.ID, StateDone)
	awaitState(t, ts.URL, b.ID, StateDone)
}

// TestServeMetricsPromFormat asserts /metrics?format=prom speaks the
// Prometheus text exposition: the scrape content type, # TYPE-annotated
// families, and the same counters the JSON snapshot carries.
func TestServeMetricsPromFormat(t *testing.T) {
	fx := newFixture(t, 30_000, 16)
	s, ts := newServer(t, fx, t.TempDir(), nil)
	defer s.Drain()

	j := decodeJob(t, submit(t, ts.URL, fx.fastq, "", nil))
	if done := awaitState(t, ts.URL, j.ID, StateDone, StateFailed); done.State != StateDone {
		t.Fatalf("job failed: %+v", done.Error)
	}

	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != trace.PrometheusContentType {
		t.Errorf("Content-Type = %q, want %q", got, trace.PrometheusContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE serve_jobs_admitted_total counter\n",
		"serve_jobs_admitted_total 1\n",
		"# TYPE serve_jobs_completed_total counter\n",
		"# TYPE device_breaker_state gauge\n",
		`device_breaker_state{segment="Intel Core i7-2600 (OpenCL)"} 0` + "\n",
		"# TYPE serve_job_sim_seconds histogram\n",
		`serve_job_sim_seconds_bucket{le="+Inf"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom exposition lacks %q:\n%s", want, out)
		}
	}

	bad, err := http.Get(ts.URL + "/metrics?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format = %d, want 400", bad.StatusCode)
	}
}

// TestServeDevicesParamValidation covers the partition-size request
// surface: out-of-range ?devices= is a 400, as is a fault plan whose
// device=K directive points outside the job's own partition.
func TestServeDevicesParamValidation(t *testing.T) {
	fx := newFixture(t, 30_000, 8)
	s, ts := newServer(t, fx, t.TempDir(), nil) // single-device pool
	defer s.Drain()

	for _, q := range []string{"?devices=0", "?devices=-1", "?devices=2", "?devices=banana"} {
		resp := submit(t, ts.URL, fx.fastq, q, nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s = %d, want 400", q, resp.StatusCode)
		}
	}

	// device=2 cannot target a 1-device partition, even on a bigger pool.
	resp := submit(t, ts.URL, fx.fastq, "?devices=1",
		map[string]string{"X-Repute-Faults": "device=2,enq1=oor"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-partition fault directive = %d, want 400", resp.StatusCode)
	}
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "exceeds the job's 1-device partition") {
		t.Errorf("error = %q, want partition-bound message", e.Error)
	}

	// In-range requests are accepted and recorded on the job.
	ok := decodeJob(t, submit(t, ts.URL, fx.fastq, "?devices=1", nil))
	if ok.Devices != 1 {
		t.Errorf("admitted job devices = %d, want 1", ok.Devices)
	}
	if done := awaitState(t, ts.URL, ok.ID, StateDone, StateFailed); done.State != StateDone {
		t.Fatalf("job failed: %+v", done.Error)
	}
}

// openMidCooldown trips d's breaker and fails its canary, leaving it open
// with a cooldown of two allocator decisions, none of them taken yet.
func openMidCooldown(t *testing.T, d *cl.Device) {
	t.Helper()
	lost := &cl.Error{Code: cl.DeviceNotAvailable, Op: "enqueue", Device: d.Name}
	b := d.Breaker()
	b.RecordFailure(lost)
	b.Skipped()
	if st, _ := b.RecordFailure(lost); st != cl.BreakerOpen {
		t.Fatalf("%s after a failed canary: %v, want open", d.Name, st)
	}
}

// TestAllocatorAdmitsOpenDeviceAlone: a one-device pool whose device is
// open mid-cooldown grants a devices=1 job at once, on the device
// half-opened as its canary — a quarantine never stalls the queue.
func TestAllocatorAdmitsOpenDeviceAlone(t *testing.T) {
	pool := threeDevicePool()[:1]
	openMidCooldown(t, pool[0])
	idx, devs, ok := newAllocator(pool).acquire(1)
	if !ok || !slices.Equal(idx, []int{0}) || devs[0] != pool[0] {
		t.Fatalf("acquire(1) = %v %v %v, want pool-0", idx, devs, ok)
	}
	if st := pool[0].BreakerState(); st != cl.BreakerHalfOpen {
		t.Errorf("granted pool-0 is %v, want half-open", st)
	}
}

// TestAllocatorPassesOverOpenDevice: while the closed device is free, a
// devices=1 job gets it and the open one is passed over; that pass
// counts toward its cooldown, so the next decision half-opens it.
func TestAllocatorPassesOverOpenDevice(t *testing.T) {
	pool := threeDevicePool()[:2]
	openMidCooldown(t, pool[1])
	a := newAllocator(pool)
	for pass, want := range []cl.BreakerState{cl.BreakerOpen, cl.BreakerHalfOpen} {
		idx, _, ok := a.acquire(1)
		if !ok || !slices.Equal(idx, []int{0}) {
			t.Fatalf("pass %d: acquire(1) = %v %v, want the closed pool-0", pass+1, idx, ok)
		}
		if st := pool[1].BreakerState(); st != want {
			t.Fatalf("pass %d: pool-1 is %v, want %v", pass+1, st, want)
		}
		a.release(idx)
	}
}
