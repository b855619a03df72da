package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("retries_total").Add(3)
	reg.Counter("enqueues_total/CPU-A").Add(5)
	reg.Counter("enqueues_total/CPU-B").Add(7)
	reg.Gauge("device_busy_seconds/CPU-A").Set(1.25)
	reg.Gauge("prefilter_filtered_fraction").Set(0.5)
	h := reg.Histogram("enqueue_seconds", TimeBuckets())
	h.Observe(5e-4) // le 1e-3 bucket
	h.Observe(5e-4)
	h.Observe(2)     // le 10 bucket
	h.Observe(1e300) // overflow

	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE enqueues_total counter
enqueues_total{segment="CPU-A"} 5
enqueues_total{segment="CPU-B"} 7
# TYPE retries_total counter
retries_total 3
# TYPE device_busy_seconds gauge
device_busy_seconds{segment="CPU-A"} 1.25
# TYPE prefilter_filtered_fraction gauge
prefilter_filtered_fraction 0.5
# TYPE enqueue_seconds histogram
enqueue_seconds_bucket{le="0.001"} 2
enqueue_seconds_bucket{le="10"} 3
enqueue_seconds_bucket{le="+Inf"} 4
enqueue_seconds_sum 1e+300
enqueue_seconds_count 4
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Equal snapshots expose byte-identical text.
	var again bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two expositions of one snapshot differ")
	}
}

func TestWritePrometheusSegmentedHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("job_seconds/upload", TimeBuckets())
	h.Observe(0.02)
	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE job_seconds histogram\n",
		`job_seconds_bucket{segment="upload",le="0.1"} 1` + "\n",
		`job_seconds_bucket{segment="upload",le="+Inf"} 1` + "\n",
		`job_seconds_sum{segment="upload"} 0.02` + "\n",
		`job_seconds_count{segment="upload"} 1` + "\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, buf.String())
		}
	}
}

func TestPrometheusNameAndLabelSanitisation(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`weird.family/seg"with\escapes` + "\nnewline").Add(1)
	reg.Gauge("9starts_with_digit").Set(1)
	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`weird_family{segment="seg\"with\\escapes\nnewline"} 1`,
		"_starts_with_digit 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
}

// TestMetricsDerivesHealthCounters: the breaker and watchdog instants
// the cl layer emits surface as the documented health counters.
func TestMetricsDerivesHealthCounters(t *testing.T) {
	rec := NewRecorder()
	rec.Instant("CPU-A", "watchdog-fired")
	rec.Instant("CPU-A", "watchdog-fired")
	rec.Instant("CPU-A", "breaker-open")
	rec.Instant("CPU-A", "breaker-closed")
	m := rec.Metrics()
	checkMetricNames(t, m)
	for name, want := range map[string]int64{
		"watchdog_fired_total":     2,
		"device_quarantined_total": 1,
		"device_readmitted_total":  1,
	} {
		if got := m.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
