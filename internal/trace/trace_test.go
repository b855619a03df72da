package trace

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestAttrValues(t *testing.T) {
	if v := Str("k", "s").Value(); v != "s" {
		t.Errorf("Str value = %v", v)
	}
	if v := I64("k", 7).Value(); v != int64(7) {
		t.Errorf("I64 value = %v", v)
	}
	if v := F64("k", 2.5).Value(); v != 2.5 {
		t.Errorf("F64 value = %v", v)
	}
}

func TestRecorderSpanOrderAndLanes(t *testing.T) {
	r := NewRecorder()
	r.Span("dev-b", "b1", 0, 1)
	r.Span("dev-a", "a1", 0, 2)
	r.Span("dev-b", "b2", 1, 1)
	evs := r.Events()
	var got []string
	for _, ev := range evs {
		got = append(got, ev.Lane+"/"+ev.Name)
	}
	want := []string{"dev-a/a1", "dev-b/b1", "dev-b/b2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events = %v, want %v", got, want)
		}
	}
	lanes := r.Lanes()
	if len(lanes) != 2 || lanes[0] != "dev-a" || lanes[1] != "dev-b" {
		t.Errorf("Lanes = %v", lanes)
	}
}

func TestRecorderBeginEnd(t *testing.T) {
	r := NewRecorder()
	id := r.Begin("host", "map", 1, I64("reads", 10))
	if err := r.Validate(); err == nil {
		t.Error("Validate must fail while a span is open")
	}
	r.End(id, 4, F64("energy_j", 2))
	r.End(id, 9) // double End is ignored
	r.End(999, 9)
	evs := r.Events()
	if len(evs) != 1 || evs[0].Start != 1 || evs[0].Dur != 3 {
		t.Fatalf("events = %+v", evs)
	}
	if len(evs[0].Attrs) != 2 {
		t.Errorf("End must append attrs: %+v", evs[0].Attrs)
	}
	if err := r.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// End before Begin's start clamps the duration to zero.
	id2 := r.Begin("host", "neg", 5)
	r.End(id2, 3)
	for _, ev := range r.Events() {
		if ev.Name == "neg" && ev.Dur != 0 {
			t.Errorf("negative span not clamped: %+v", ev)
		}
	}
}

func TestRecorderInstantFrontier(t *testing.T) {
	r := NewRecorder()
	r.Span("dev", "work", 2, 3)
	r.Instant("dev", "alloc-fault", Str("error", "boom"))
	r.Instant("fresh", "note")
	var at float64 = -1
	for _, ev := range r.Events() {
		if ev.Name == "alloc-fault" {
			at = ev.Start
		}
		if ev.Lane == "fresh" && ev.Start != 0 {
			t.Errorf("instant on fresh lane at %g, want 0", ev.Start)
		}
	}
	if at != 5 {
		t.Errorf("instant pinned at %g, want frontier 5", at)
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	r := NewRecorder()
	r.Span("dev", "outer", 0, 2)
	r.Span("dev", "straddle", 1, 3) // overlaps outer without nesting
	if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Errorf("Validate = %v, want overlap error", err)
	}
	r2 := NewRecorder()
	r2.Span("dev", "outer", 0, 4)
	r2.Span("dev", "inner", 1, 2)
	r2.Span("dev", "after", 4, 1)
	if err := r2.Validate(); err != nil {
		t.Errorf("nested spans must validate: %v", err)
	}
}

func TestRegistryMetrics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("retries_total")
	c.Add(2)
	c.Add(-5) // ignored
	if reg.Counter("retries_total") != c {
		t.Error("Counter not stable across lookups")
	}
	if c.Value() != 2 {
		t.Errorf("counter = %d, want 2", c.Value())
	}
	g := reg.Gauge("speedup")
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Errorf("gauge = %g", g.Value())
	}
	h := reg.Histogram("lat", TimeBuckets())
	h.Observe(5e-7)
	h.Observe(0.02)
	h.Observe(1e9) // overflow bucket
	if h.Count() != 3 {
		t.Errorf("count = %d", h.Count())
	}
	snap := reg.Snapshot()
	if snap.Counters["retries_total"] != 2 || snap.Gauges["speedup"] != 3.5 {
		t.Errorf("snapshot = %+v", snap)
	}
	hs := snap.Histograms["lat"]
	if hs.Count != 3 || len(hs.Buckets) != 3 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
	if hs.Buckets[len(hs.Buckets)-1].LE != "+Inf" {
		t.Errorf("overflow bucket = %+v", hs.Buckets)
	}

	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	var buf2 bytes.Buffer
	if err := snap.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("equal snapshots must serialise byte-identically")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				reg.Counter("n").Add(1)
				reg.Histogram("h", OpsBuckets()).Observe(float64(j))
				reg.Gauge("g").Set(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("n").Value(); got != 800 {
		t.Errorf("counter = %d, want 800", got)
	}
	if got := reg.Histogram("h", nil).Count(); got != 800 {
		t.Errorf("histogram count = %d, want 800", got)
	}
}

func TestRecorderMetricsDerivation(t *testing.T) {
	r := NewRecorder()
	r.Span("gpu-0", "enqueue:map", 0, 2,
		F64("energy_j", 10), I64("candidates", 30), I64("verified", 4))
	r.Span("gpu-0", "enqueue:map", 2, 1, F64("energy_j", 5))
	r.Span("gpu-0", "penalty", 3, 0.5, F64("energy_j", 1))
	r.Span("host", "map", 0, 4)
	r.Instant("gpu-0", "retry")
	r.Instant("gpu-0", "enqueue-fault", Str("error", "x"))
	r.Instant("gpu-0", "batch-halved")
	r.Instant("host", "failover", I64("reads", 9))
	r.ItemOpsHistogram().Observe(100)
	m := r.Metrics()
	checkMetricNames(t, m)
	checks := map[string]int64{
		"enqueues_total/gpu-0": 2,
		"candidates_total":     30,
		"verified_total":       4,
		"retries_total":        1,
		"faults_total":         1,
		"batch_halvings_total": 1,
		"failovers_total":      1,
	}
	for k, want := range checks {
		if got := m.Counters[k]; got != want {
			t.Errorf("%s = %d, want %d", k, got, want)
		}
	}
	if got := m.Gauges["device_busy_seconds/gpu-0"]; got != 3.5 {
		t.Errorf("busy seconds = %g, want 3.5", got)
	}
	if got := m.Gauges["energy_joules/gpu-0"]; got != 16 {
		t.Errorf("energy = %g, want 16", got)
	}
	if _, ok := m.Gauges["device_busy_seconds/host"]; ok {
		t.Error("host lane must not report device busy seconds")
	}
	if hs := m.Histograms["item_ops"]; hs.Count != 1 {
		t.Errorf("item_ops = %+v", hs)
	}
	if hs := m.Histograms["enqueue_seconds"]; hs.Count != 2 {
		t.Errorf("enqueue_seconds = %+v", hs)
	}
	if got := m.Gauges["kernel_seconds/map"]; got != 3 {
		t.Errorf("kernel_seconds/map = %g, want 3", got)
	}
	// No event carried prefilter attributes, so no prefilter metrics
	// may appear: their presence is gated on the filter having run.
	for _, k := range []string{"prefilter_rejected_total", "prefilter_false_accepts_total"} {
		if _, ok := m.Counters[k]; ok {
			t.Errorf("%s present without prefilter events", k)
		}
	}
	if _, ok := m.Gauges["prefilter_filtered_fraction"]; ok {
		t.Error("prefilter_filtered_fraction present without prefilter events")
	}
}

func TestRecorderMetricsPrefilterDerivation(t *testing.T) {
	r := NewRecorder()
	// Two spans of kernels that ran the filter and one of a kernel that
	// did not: the derivation goes by which attributes a span carries,
	// whatever the kernel is called.
	r.Span("cpu-0", "enqueue:map-prefilter", 0, 1,
		I64("candidates", 40), I64("filtered", 25), I64("filter_words", 900))
	r.Span("cpu-0", "enqueue:map-prefilter", 1, 1,
		I64("candidates", 10), I64("filtered", 5), I64("filter_words", 200))
	r.Span("cpu-0", "enqueue:map-verify", 2, 1,
		I64("candidates", 20), I64("verified", 17), I64("false_accepts", 3))
	m := r.Metrics()
	checkMetricNames(t, m)
	if got := m.Counters["prefilter_rejected_total"]; got != 30 {
		t.Errorf("prefilter_rejected_total = %d, want 30", got)
	}
	if got := m.Counters["prefilter_false_accepts_total"]; got != 3 {
		t.Errorf("prefilter_false_accepts_total = %d, want 3", got)
	}
	// Denominator counts candidates only on spans that carried a
	// "filtered" attribute (40+10), not the verify span's 20.
	if got := m.Gauges["prefilter_filtered_fraction"]; got != 0.6 {
		t.Errorf("prefilter_filtered_fraction = %g, want 0.6", got)
	}
	if got := m.Counters["candidates_total"]; got != 70 {
		t.Errorf("candidates_total = %d, want 70", got)
	}
	if got := m.Gauges["kernel_seconds/map-prefilter"]; got != 2 {
		t.Errorf("kernel_seconds/map-prefilter = %g, want 2", got)
	}
	if got := m.Gauges["kernel_seconds/map-verify"]; got != 1 {
		t.Errorf("kernel_seconds/map-verify = %g, want 1", got)
	}
}

// metricFamilyRe is the snake_case shape of a metric family, the part
// of a name before the first "/".
var metricFamilyRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// checkMetricNames holds a snapshot to the naming convention: every
// family is snake_case, counter families end in _total, and gauge and
// histogram families do not. internal/serve's /metrics tests apply the
// same rule to the service registry.
func checkMetricNames(t *testing.T, snap Snapshot) {
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

func TestWriteChromeTrace(t *testing.T) {
	r := NewRecorder()
	r.Span("dev-a", "enqueue:map", 0, 0.25, I64("global_size", 64))
	id := r.Begin("host", "map", 0)
	r.End(id, 0.25)
	r.Instant("dev-a", "retry", Str("error", "transient"))
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   *float64       `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Scope string         `json:"s"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if tr.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", tr.DisplayTimeUnit)
	}
	var names []string
	threads := map[string]int{}
	for _, ev := range tr.TraceEvents {
		names = append(names, ev.Phase+":"+ev.Name)
		if ev.Phase == "M" && ev.Name == "thread_name" {
			threads[ev.Args["name"].(string)] = ev.TID
		}
		if ev.Phase == "X" {
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Errorf("span %s has bad duration %v", ev.Name, ev.Dur)
			}
			if ev.Name == "enqueue:map" && *ev.Dur != 0.25*1e6 {
				t.Errorf("span dur = %g µs, want 250000", *ev.Dur)
			}
		}
		if ev.Phase == "i" && ev.Scope != "t" {
			t.Errorf("instant %s scope = %q, want t", ev.Name, ev.Scope)
		}
	}
	if threads["dev-a"] != 1 || threads["host"] != 2 {
		t.Errorf("thread metadata = %v", threads)
	}
	// Byte-identical on re-export.
	var buf2 bytes.Buffer
	if err := WriteChromeTrace(&buf2, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("re-export must be byte-identical")
	}
}

func TestHistogramCopyFrom(t *testing.T) {
	a := NewHistogram(OpsBuckets())
	a.Observe(3)
	a.Observe(3000)
	b := NewHistogram(OpsBuckets())
	b.copyFrom(a)
	if b.Count() != 2 || b.Sum() != 3003 {
		t.Errorf("copyFrom: count=%d sum=%g", b.Count(), b.Sum())
	}
}

func TestRecorderConcurrentLanes(t *testing.T) {
	// Concurrent writers on distinct lanes: per-lane order must be each
	// writer's program order regardless of interleaving.
	r := NewRecorder()
	var wg sync.WaitGroup
	for _, lane := range []string{"a", "b", "c", "d"} {
		wg.Add(1)
		go func(lane string) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.Span(lane, "s", float64(i), 1)
				r.Instant(lane, "i")
			}
		}(lane)
	}
	wg.Wait()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	prev := map[string]float64{}
	for _, ev := range r.Events() {
		if ev.Phase != 'X' {
			continue
		}
		if ev.Start < prev[ev.Lane] {
			t.Fatalf("lane %s out of order: %g after %g", ev.Lane, ev.Start, prev[ev.Lane])
		}
		prev[ev.Lane] = ev.Start
	}
}

func TestRegistryApply(t *testing.T) {
	// Two source registries standing in for two jobs' recorders.
	job := func(retries int64, busy float64, obs []float64) Snapshot {
		r := NewRegistry()
		r.Counter("retries_total/oor").Add(retries)
		r.Gauge("device_busy_seconds/cpu").Set(busy)
		h := r.Histogram("batch_sim_seconds", TimeBuckets())
		for _, v := range obs {
			h.Observe(v)
		}
		return r.Snapshot()
	}
	s1 := job(2, 1.5, []float64{3e-4, 0.2})
	s2 := job(3, 4.0, []float64{0.5, 250}) // 250 overflows TimeBuckets

	dst := NewRegistry()
	if err := dst.Apply(s1); err != nil {
		t.Fatal(err)
	}
	if err := dst.Apply(s2); err != nil {
		t.Fatal(err)
	}

	if got := dst.Counter("retries_total/oor").Value(); got != 5 {
		t.Errorf("counter folded to %d, want 5 (sum of jobs)", got)
	}
	if got := dst.Gauge("device_busy_seconds/cpu").Value(); got != 4.0 {
		t.Errorf("gauge folded to %v, want 4.0 (last applied wins)", got)
	}
	h := dst.Histogram("batch_sim_seconds", TimeBuckets())
	if h.Count() != 4 {
		t.Errorf("histogram count = %d, want 4", h.Count())
	}
	if want := 3e-4 + 0.2 + 0.5 + 250; h.Sum() != want {
		t.Errorf("histogram sum = %v, want %v", h.Sum(), want)
	}
	hs := h.snapshot()
	var overflow int64
	for _, b := range hs.Buckets {
		if b.LE == "+Inf" {
			overflow = b.Count
		}
	}
	if overflow != 1 {
		t.Errorf("overflow bucket = %d, want 1", overflow)
	}

	// Determinism: two registries fed the same snapshots serialise
	// byte-identically.
	other := NewRegistry()
	if err := other.Apply(s1); err != nil {
		t.Fatal(err)
	}
	if err := other.Apply(s2); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := dst.Snapshot().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := other.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("snapshots differ:\n%s\nvs\n%s", a.String(), b.String())
	}

	// Snapshots omit empty buckets, so a bound the destination has never
	// seen is legitimate: it must merge as a new bucket, not misbucket or
	// fail.
	extra := Snapshot{Histograms: map[string]HistogramSnapshot{
		"batch_sim_seconds": {Count: 1, Sum: 7, Buckets: []BucketSnapshot{{LE: "7", Count: 1}}},
	}}
	if err := dst.Apply(extra); err != nil {
		t.Fatalf("Apply with an unseen bucket bound: %v", err)
	}
	if h.Count() != 5 {
		t.Errorf("histogram count after merge = %d, want 5", h.Count())
	}
	var at7, inf int64
	for _, b := range h.snapshot().Buckets {
		switch b.LE {
		case "7":
			at7 = b.Count
		case "+Inf":
			inf = b.Count
		}
	}
	if at7 != 1 || inf != 1 {
		t.Errorf("merged buckets: le=7 count %d (want 1), overflow %d (want 1)", at7, inf)
	}
	// A malformed bound is still a typed failure.
	bad := Snapshot{Histograms: map[string]HistogramSnapshot{
		"batch_sim_seconds": {Count: 1, Sum: 1, Buckets: []BucketSnapshot{{LE: "seven", Count: 1}}},
	}}
	if err := dst.Apply(bad); err == nil {
		t.Error("Apply with a malformed bucket bound succeeded")
	}
}
