package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cl"
	"repro/internal/mapper"
)

func TestPercentile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {90, 46}, {100, 50}, {25, 20}} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("single sample p90 = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := median([]float64{5, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The expected values are Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		values     []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{1, 2, 4, 8, 16, 32, 64}, 2, 8, 32},
	} {
		q1, q2, q3 := quartiles(c.values)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.values, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestWorseBy(t *testing.T) {
	lower := metricDef{Better: "lower"}
	higher := metricDef{Better: "higher"}
	if got := lower.worseBy(100, 110); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("lower-is-better 100→110 = %v, want 0.10", got)
	}
	if got := higher.worseBy(100, 110); math.Abs(got+0.10) > 1e-12 {
		t.Errorf("higher-is-better 100→110 = %v, want -0.10", got)
	}
	if got := lower.worseBy(0, 0); got != 0 {
		t.Errorf("0→0 = %v, want 0", got)
	}
}

func TestSelfTimeExcludesChildren(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{Name: "batch", Start: at(0), End: at(100), Parent: -1},
		{Name: "read", Start: at(10), End: at(60), Parent: 0},
		{Name: "seed.select", Start: at(20), End: at(50), Parent: 1},
		{Name: "read", Start: at(60), End: at(90), Parent: 0},
	}
	self, count := selfTimes(spans)
	if self["batch"] != at(20) || self["read"] != at(50) || self["seed.select"] != at(30) {
		t.Errorf("self times = %v", self)
	}
	if count["read"] != 2 || count["batch"] != 1 {
		t.Errorf("span counts = %v", count)
	}
}

func TestRecorderNestsAndJoins(t *testing.T) {
	var off *recorder
	off.begin("x") // a nil recorder is "recording off"
	off.end()

	r := newRecorder()
	r.setBatch(3)
	r.begin("outer")
	r.begin("inner")
	r.end()
	r.end()
	o := newRecorder()
	o.begin("other")
	o.end()
	r.join(o)
	if len(r.spans) != 3 || r.spans[1].Parent != 0 || r.spans[0].Parent != -1 || r.spans[2].Parent != -1 {
		t.Fatalf("span tree = %+v", r.spans)
	}
	if r.spans[1].Batch != 3 {
		t.Errorf("batch id = %d, want 3", r.spans[1].Batch)
	}
	if r.spans[1].Start < r.spans[0].Start || r.spans[1].End > r.spans[0].End {
		t.Errorf("inner span not inside outer: %+v", r.spans)
	}
}

func smokeEnv(t *testing.T) *env {
	t.Helper()
	e, err := newEnv(1, smokeScale, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	return e
}

// The layer replay must reproduce Pipeline.Map — mappings and cl.Cost —
// for every selector × prefilter × geometry the workloads use, against
// both serial and default execution on the workload's device count.
func TestReplayMatchesMap(t *testing.T) {
	e := smokeEnv(t)
	for _, w := range workloadsFor(e.scale) {
		t.Run(w.name, func(t *testing.T) {
			art, err := e.artifact(w.sharded)
			if err != nil {
				t.Fatal(err)
			}
			tg, _, err := e.setup(w, art)
			if err != nil {
				t.Fatal(err)
			}
			defer tg.close()
			rs, err := e.readsFor(w)
			if err != nil {
				t.Fatal(err)
			}
			batches := [][][]byte{rs.reads[:w.batch], rs.reads[w.batch : 2*w.batch]}
			for _, exec := range []cl.ExecMode{cl.Serial, cl.Auto} {
				p, err := newPipeline(tg.file, w, w.devices, exec)
				if err != nil {
					t.Fatal(err)
				}
				var want mapSum
				rp := newReplayer(w, tg)
				var got [][]mapper.Mapping
				for i, b := range batches {
					if err := want.mapBatch(p, w.opt, b); err != nil {
						t.Fatal(err)
					}
					ms, err := rp.mapBatch(newRecorder(), i, b)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, ms...)
				}
				if err := rp.checkAgainst(got, want.mappings, want.cost); err != nil {
					t.Errorf("exec %v: %v", exec, err)
				}
				if want.cost.FMSteps == 0 || want.cost.VerifyWords == 0 {
					t.Errorf("exec %v: degenerate batch, cost %+v", exec, want.cost)
				}
			}
		})
	}
}

// The whole suite at smoke scale: every output check passes, every
// workload reports the contract metrics and its own layers, and a second
// run of the same seed repeats every exact metric bit for bit.
func TestSmokeSuiteTwice(t *testing.T) {
	e := smokeEnv(t)
	ws := workloadsFor(e.scale)
	first, err := e.runSuite(ws, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range incorrect(first) {
		t.Error(f)
	}
	byName := map[string]*workloadResult{}
	for _, r := range first {
		byName[r.Name] = r
		if r.Attempted == 0 || r.Failed != 0 || r.OpCount == 0 {
			t.Errorf("%s: attempted %d failed %d ops %d", r.Name, r.Attempted, r.Failed, r.OpCount)
		}
		for _, m := range endToEnd {
			if v, ok := r.EndToEnd[m.Name]; m.Contract && (!ok || v <= 0 || math.IsNaN(v)) {
				t.Errorf("%s: contract metric %s = %v (present %v)", r.Name, m.Name, v, ok)
			}
		}
		for _, name := range []string{"seed.select_ns_per_read", "mapper.verify_ns_per_read", "core.replay_coverage",
			"fmindex.extend_ns_per_step", "cl.ops_per_read", "index.load_s", "trace.overhead_ratio"} {
			if v, ok := r.PerLayer[name]; !ok || v <= 0 {
				t.Errorf("%s: layer metric %s = %v (present %v)", r.Name, name, v, ok)
			}
		}
		for name := range r.PerLayer {
			if !knownMetric(perLayer, name) {
				t.Errorf("%s: undeclared layer metric %s", r.Name, name)
			}
		}
	}
	// A layer shows up only where the workload runs it.
	for name, where := range map[string][]string{
		"filter.ns_per_word":       {"map-shard-gk"},
		"mapper.merge_ns_per_read": {"map-shard-gk"},
		"serve.overhead_ratio":     {"serve-jobs"},
		"sam.write_ns_per_read":    {"cli-exact", "serve-jobs"},
		"checkpoint.save_ms":       {"cli-exact", "serve-jobs"},
		"fastx.scan_ns_per_read":   {"cli-exact", "serve-jobs"},
	} {
		for _, r := range first {
			_, ok := r.PerLayer[name]
			if want := strings.Contains(" "+strings.Join(where, " ")+" ", " "+r.Name+" "); ok != want {
				t.Errorf("%s: %s present = %v, want %v", r.Name, name, ok, want)
			}
		}
	}
	if _, ok := byName["cli-exact"].EndToEnd["peak_rss_mb"]; !ok {
		t.Error("cli-exact: no peak_rss_mb")
	}
	if _, ok := byName["cli-exact"].EndToEnd["alloc_bytes_per_read"]; ok {
		t.Error("cli-exact: alloc_bytes_per_read is not observable out of process")
	}

	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, first); err != nil {
		t.Fatal(err)
	}
	var events []traceEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil || len(events) < 100 {
		t.Errorf("trace-event JSON: %v (%d events)", err, len(events))
	}
	printResults(&buf, e, first) // must not panic on any result shape

	second, err := e.runSuite(ws, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range disagreements(first, second, true) {
		// Wall-clock agreement is the full benchmark's business; at smoke
		// scale only the exact metrics are meaningful.
		if strings.Contains(d, "is exact") || strings.Contains(d, "one run only") {
			t.Error(d)
		}
	}
}

func knownMetric(defs []metricDef, name string) bool {
	for _, m := range defs {
		if m.Name == name {
			return true
		}
	}
	return false
}

// The driver's invocation: one workload, time-bounded, result object on
// the last line with exactly the declared metrics.
func TestDriverLine(t *testing.T) {
	for _, traced := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--smoke", "--workload", "map-shard-gk", "--seed", "7", "--seconds", "0.3", "--trace", traced},
			&stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got struct {
			Correct   *bool                   `json:"correct"`
			Attempted int                     `json:"attempted"`
			Failed    *int                    `json:"failed"`
			Metrics   map[string]driverMetric `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
		if got.Correct == nil || !*got.Correct || got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
			t.Errorf("trace %s: result %+v", traced, got)
		}
		want := perLayer
		if traced == "0" {
			want = nil
			for _, m := range endToEnd {
				if m.Contract {
					want = append(want, m)
				}
			}
		}
		if len(got.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, want %d", traced, len(got.Metrics), len(want))
		}
		for _, m := range want {
			if v, ok := got.Metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v (present %v), want unit %s", traced, m.Name, v, ok, m.Unit)
			}
		}
	}
	if code := run([]string{"--workload", "nope"}, &bytes.Buffer{}, &bytes.Buffer{}); code == 0 {
		t.Error("unknown workload should fail")
	}
}

// BENCHMARK.json is written by hand; it must say what the code measures.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", b.Paths, b.RunSeconds)
	}
	ws := workloadsFor(fullScale)
	if len(b.Workloads) != len(ws) {
		t.Fatalf("%d workloads, code has %d", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: %+v, code has %s (%d-char why)", i, b.Workloads[i], w.name, len(w.why))
		}
	}
	var contract []metricDef
	for _, m := range endToEnd {
		if m.Contract {
			contract = append(contract, m)
		}
	}
	if len(b.EndToEnd) != len(contract) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d end-to-end and %d per-layer metrics, code has %d and %d",
			len(b.EndToEnd), len(b.PerLayer), len(contract), len(perLayer))
	}
	for i, m := range contract {
		g := b.EndToEnd[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound == nil || *g.Bound != m.Bound || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, g, m)
		}
	}
	for i, m := range perLayer {
		g := b.PerLayer[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != nil {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, g, m)
		}
	}
}
