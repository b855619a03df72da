// Command benchmark is the repository's two-clock, per-layer benchmark:
// five workloads over the real map, CLI and service paths, end-to-end
// metrics from an untraced pass and per-layer metrics from a traced
// pass, every output checked. See README.md in this directory.
//
//	go run ./benchmark [-seed N] [-workload name] [-out file] [-trace-out file]
//	go run ./benchmark -agree
//
// The benchmark driver runs one workload for a fixed time:
//
//	go run ./benchmark --workload map-dp --seed 3 --seconds 10 --trace 0
//
// and reads the JSON object on the last line of standard output.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/index"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed flags.
type options struct {
	seed     int64
	workload string
	seconds  float64
	trace    int
	out      string
	traceOut string
	agree    bool
	smoke    bool
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all five)")
	fs.Float64Var(&o.seconds, "seconds", 0, "measure each phase for this many seconds (default: fixed-size phases)")
	fs.IntVar(&o.trace, "trace", -1, "0: untraced pass only; 1: traced pass only (default: both)")
	fs.StringVar(&o.out, "out", "", "write every metric and the run's provenance to this JSON file")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans as Chrome trace-event JSON")
	fs.BoolVar(&o.agree, "agree", false, "run the suite twice and fail if an end-to-end metric differs by more than its bound")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny scale (seconds, not minutes): checks the harness, measures nothing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := o.run(stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

func (o options) run(stdout, stderr io.Writer) error {
	if o.trace < -1 || o.trace > 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	sc := fullScale
	if o.smoke {
		sc = smokeScale
	}
	selected := workloadsFor(sc)
	if o.workload != "" {
		w := workloadByName(selected, o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []*workload{w}
	}
	logf := func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) }
	e, err := newEnv(o.seed, sc, o.seconds, logf)
	if err != nil {
		return err
	}
	defer e.close()
	// An interrupted run must not leave its scratch directory (index
	// artifacts, the built binary, a spool) behind either.
	sig := make(chan os.Signal, 1)
	finished := make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer func() { signal.Stop(sig); close(finished) }()
	go func() {
		select {
		case <-sig:
			e.close()
			os.Exit(130)
		case <-finished:
		}
	}()
	fmt.Fprintf(stdout, "reference: %d bases (%s scale); packed BWT %.1f MB, full suffix array %.1f MB\n",
		sc.refLen, sc.name, float64(sc.refLen)/4/1e6, float64(sc.refLen)*4/1e6)

	results, err := e.runSuite(selected, o.trace)
	if err != nil {
		return err
	}
	printResults(stdout, e, results)
	failed := incorrect(results)

	if o.agree {
		again, err := e.runSuite(selected, o.trace)
		if err != nil {
			return err
		}
		printResults(stdout, e, again)
		failed = append(failed, incorrect(again)...)
		failed = append(failed, disagreements(results, again, o.seconds == 0)...)
	}
	if o.out != "" {
		if err := writeJSONFile(o.out, e.report(results)); err != nil {
			return err
		}
	}
	if o.traceOut != "" {
		var buf bytes.Buffer
		if err := writeChromeTrace(&buf, results); err != nil {
			return err
		}
		if err := os.WriteFile(o.traceOut, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	// The driver reads one workload's result from the last line.
	if o.workload != "" && o.trace >= 0 {
		if err := printDriverLine(stdout, results[0], o.trace == 1); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d check(s) failed:\n  %s", len(failed), strings.Join(failed, "\n  "))
	}
	return nil
}

// runSuite runs the selected workloads: the untraced pass for the
// end-to-end metrics, then the traced pass for the per-layer ones.
// passes is -1 for both, 0 for untraced only, 1 for traced only.
func (e *env) runSuite(selected []*workload, passes int) ([]*workloadResult, error) {
	var results []*workloadResult
	for _, w := range selected {
		res, err := e.runWorkload(w, passes)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		results = append(results, res)
	}
	return results, nil
}

func (e *env) runWorkload(w *workload, passes int) (*workloadResult, error) {
	t0 := time.Now()
	res := newResult(w.name)
	art, err := e.artifact(w.sharded)
	if err != nil {
		return nil, err
	}
	rs, err := e.readsFor(w)
	if err != nil {
		return nil, err
	}
	reps := e.scale.setupReps
	if passes == 1 {
		reps = 1 // set-up time is an end-to-end metric; the traced pass only needs the state
	}
	t, err := e.measureSetup(w, art, reps, res)
	if err != nil {
		return nil, err
	}
	defer func() { t.close() }()
	pl := res.PerLayer
	if art.sharded {
		pl["index.shard_build_s"] = art.buildS
	} else {
		pl["index.build_s"] = art.buildS
	}
	pl["index.save_s"] = art.saveS
	pl["index.file_mb"] = art.fileMB

	if passes != 1 {
		e.logf("%s: untraced pass", w.name)
		switch w.kind {
		case kindMap:
			err = e.runMapUntraced(w, t, rs, res)
		case kindCLI:
			err = e.runCLIUntraced(w, t, art, rs, res)
		case kindServe:
			err = e.runServeUntraced(w, t, rs, res)
		}
		if err != nil {
			return nil, err
		}
		res.EndToEnd["ops_failed_ratio"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	}
	if passes != 0 {
		e.logf("%s: traced pass", w.name)
		if w.kind == kindServe {
			// A fresh server: the untraced pass left a spool full of jobs.
			t.close()
			if t, _, err = e.setup(w, art); err != nil {
				return nil, err
			}
		}
		rec := newRecorder()
		if err := e.tracedKernel(w, t, rs, res, rec); err != nil {
			return nil, err
		}
		switch w.kind {
		case kindCLI:
			err = e.tracedCLI(w, t, art, rs, res, rec)
		case kindServe:
			err = e.tracedServe(w, t, rs, res, rec)
		}
		if err != nil {
			return nil, err
		}
		res.spans = rec.spans
		self, _ := selfTimes(rec.spans)
		res.SelfTimeS = map[string]float64{}
		for name, d := range self {
			res.SelfTimeS[name] = d.Seconds()
		}
	}
	if passes == 1 {
		// Only the per-layer numbers were measured.
		res.EndToEnd = map[string]float64{}
	}
	if passes == 0 {
		res.PerLayer = map[string]float64{}
	}
	e.logf("%s: done in %.1fs", w.name, time.Since(t0).Seconds())
	return res, nil
}

// tracedCLI runs the binary once for its SAM, then the in-process
// stream loop with spans; the two SAMs must be byte-identical.
func (e *env) tracedCLI(w *workload, t *target, art *artifact, rs *readSet, res *workloadResult, rec *recorder) error {
	paths, err := e.cliPaths(rs, 0)
	if err != nil {
		return err
	}
	perFile := e.scale.reads[w.name]
	res.Attempted++
	if _, _, err := e.invoke(w, art, paths); err != nil {
		return err
	}
	got, err := os.ReadFile(paths.sam)
	if err != nil {
		return err
	}
	first := len(rec.spans)
	want, stats, err := e.streamReference(w, t, paths.fastq, perFile, rec)
	if err != nil {
		return err
	}
	// What every invocation pays before its first read, as a span beside
	// the per-read layers. (After the loop: the second copy of the index
	// is garbage at once, and collecting it would slow the loop's spans.)
	rec.begin("index.load")
	_, err = index.LoadFile(art.path)
	rec.end()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		res.fail(1, "binary's SAM differs from the traced stream loop's (%d vs %d bytes)", len(got), len(want))
	}
	return e.streamMetrics(w, t, paths.fastq, []*streamStats{stats}, rec.spans[first:], res)
}

// streamMetrics derives the fastx, sam and checkpoint metrics from the
// stream loop's spans and counts.
func (e *env) streamMetrics(w *workload, t *target, fastqPath string, all []*streamStats, spans []span, res *workloadResult) error {
	var reads, records float64
	var samBytes float64
	for _, s := range all {
		reads += float64(s.reads)
		records += float64(s.records)
		samBytes += float64(s.samBytes)
	}
	self, count := selfTimes(spans)
	pl := res.PerLayer
	pl["fastx.scan_ns_per_read"] = float64(self["fastx.scan"]) / reads
	pl["sam.write_ns_per_read"] = float64(self["sam.write"]) / reads
	pl["sam.write_ns_per_record"] = float64(self["sam.write"]) / records
	pl["sam.bytes_per_read"] = samBytes / reads
	saves := durationsOf(spans, "checkpoint.save")
	pl["checkpoint.save_ms"] = median(saves)
	pl["checkpoint.saves_per_kread"] = float64(count["checkpoint.save"]) / reads * 1e3
	res.Samples["checkpoint.save_ms"] = len(saves)
	res.Samples["stream_reads"] = int(reads)

	allocs, n, err := scanAllocs(fastqPath, w.streamBatch)
	if err != nil {
		return err
	}
	pl["fastx.allocs_per_read"] = float64(allocs) / float64(n)
	first := all[0]
	if allocs, err = samAllocs(w, t, first.firstBatch, first.firstRes); err != nil {
		return err
	}
	pl["sam.allocs_per_read"] = float64(allocs) / float64(len(first.firstBatch.Reads))
	return nil
}

// tracedServe runs a short closed loop with client-side spans around
// each HTTP phase, then the in-process stream loop over the same uploads
// for the layers under the service.
func (e *env) tracedServe(w *workload, t *target, rs *readSet, res *workloadResult, rec *recorder) error {
	n := min(e.scale.serveTraceJobs, len(rs.reads)/w.batch)
	uploads, err := makeUploads(rs, w.batch, n)
	if err != nil {
		return err
	}
	if err := warmupJob(t, rs); err != nil {
		return err
	}
	runs := runJobs(w, t, uploads, phase{start: time.Now(), fixed: n})
	if err := e.checkJobs(w, t, uploads, runs, res); err != nil {
		return err
	}
	var jobMs, polls []float64
	refused := 0
	for _, j := range runs {
		if j.refused {
			refused++
		}
		if j.err != nil {
			continue
		}
		rec.setBatch(j.index)
		id := rec.add("serve.job", j.start, j.fetched, -1)
		rec.add("serve.submit", j.start, j.accepted, id)
		rec.add("serve.queue_wait", j.accepted, j.running, id)
		rec.add("serve.run", j.running, j.done, id)
		rec.add("serve.fetch_sam", j.done, j.fetched, id)
		jobMs = append(jobMs, ms(j.fetched.Sub(j.start)))
		polls = append(polls, float64(j.polls))
	}
	if len(jobMs) == 0 {
		return nil
	}
	pl := res.PerLayer
	for _, name := range []string{"submit", "queue_wait", "run", "fetch_sam"} {
		pl["serve."+name+"_ms"] = median(durationsOf(rec.spans, "serve."+name))
	}
	sum := 0.0
	for _, p := range polls {
		sum += p
	}
	pl["serve.polls_per_job"] = sum / float64(len(polls))
	pl["serve.retried_429"] = float64(refused)
	res.Samples["serve_jobs"] = len(jobMs)

	first := len(rec.spans)
	var all []*streamStats
	for k := 0; k < min(n, e.scale.replayBatches); k++ {
		_, stats, err := e.streamJob(w, t, uploads[k], rec)
		if err != nil {
			return err
		}
		all = append(all, stats)
	}
	stream := rec.spans[first:]
	pl["serve.overhead_ratio"] = median(jobMs) / median(durationsOf(stream, "core.map"))
	return e.streamMetrics(w, t, e.jobFASTQ(), all, stream, res)
}

// ---- output ----

func incorrect(results []*workloadResult) []string {
	var out []string
	for _, r := range results {
		for _, f := range r.Failures {
			out = append(out, r.Name+": "+f)
		}
	}
	return out
}

// disagreements compares two runs of the same code: every end-to-end
// metric must agree within its bound, and — when the phases were
// fixed-size, so both runs did the same work — the exact metrics,
// per-layer ones included, must be identical.
func disagreements(a, b []*workloadResult, fixedSize bool) []string {
	var out []string
	for i, ra := range a {
		rb := b[i]
		for _, m := range perLayer {
			if va, vb := ra.PerLayer[m.Name], rb.PerLayer[m.Name]; m.Exact && fixedSize && va != vb {
				out = append(out, fmt.Sprintf("%s: %s is exact but differs: %v vs %v", ra.Name, m.Name, va, vb))
			}
		}
		for _, m := range endToEnd {
			va, oka := ra.EndToEnd[m.Name]
			vb, okb := rb.EndToEnd[m.Name]
			if !oka && !okb {
				continue
			}
			switch {
			case oka != okb:
				out = append(out, fmt.Sprintf("%s: %s reported by one run only", ra.Name, m.Name))
			case m.Exact && fixedSize:
				if va != vb {
					out = append(out, fmt.Sprintf("%s: %s is exact but differs: %v vs %v", ra.Name, m.Name, va, vb))
				}
			default:
				if d := max(m.worseBy(va, vb), m.worseBy(vb, va)); d > m.Bound {
					out = append(out, fmt.Sprintf("%s: %s differs by %.1f%% (bound %.0f%%): %v vs %v",
						ra.Name, m.Name, 100*d, 100*m.Bound, va, vb))
				}
			}
		}
	}
	return out
}

func printResults(w io.Writer, e *env, results []*workloadResult) {
	for _, r := range results {
		fmt.Fprintf(w, "\n== %s  (seed %d, %s scale, %d reads, %d ops, %.1fs measured)\n",
			r.Name, e.seed, e.scale.name, r.Reads, r.OpCount, r.WallS)
		for _, m := range endToEnd {
			v, ok := r.EndToEnd[m.Name]
			if !ok {
				continue
			}
			note := ""
			if m.Name == "op_p50_ms" {
				note = fmt.Sprintf("  (op_count %d, q1 %.4g, q3 %.4g)", r.OpCount, r.OpQ1Ms, r.OpQ3Ms)
			}
			fmt.Fprintf(w, "  %-32s %14.6g %-8s [%s clock, %s is better]%s\n", m.Name, v, m.Unit, m.Clock, m.Better, note)
		}
		if len(r.PerLayer) > 0 && len(r.SelfTimeS) > 0 {
			fmt.Fprintln(w, "  -- per layer (traced pass)")
		}
		for _, m := range perLayer {
			if v, ok := r.PerLayer[m.Name]; ok && len(r.SelfTimeS) > 0 {
				fmt.Fprintf(w, "  %-32s %14.6g %-8s [%s clock]\n", m.Name, v, m.Unit, m.Clock)
			}
		}
		if len(r.SelfTimeS) > 0 {
			fmt.Fprintln(w, "  -- self time by span (share of all spans)")
			names := make([]string, 0, len(r.SelfTimeS))
			total := 0.0
			for name, s := range r.SelfTimeS {
				names = append(names, name)
				total += s
			}
			sort.Slice(names, func(i, j int) bool { return r.SelfTimeS[names[i]] > r.SelfTimeS[names[j]] })
			for _, name := range names {
				fmt.Fprintf(w, "  %-32s %12.4f s %6.1f%%\n", name, r.SelfTimeS[name], 100*r.SelfTimeS[name]/total)
			}
		}
		for _, f := range r.Failures {
			fmt.Fprintf(w, "  FAILED: %s\n", f)
		}
	}
}

// driverMetric is one value in the driver's result line.
type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printDriverLine prints the result object the benchmark driver reads
// from the last line: every contract end-to-end metric, or with traced
// every per-layer metric. The driver wants the full per-layer list from
// every workload, so here — and only here — a metric the workload cannot
// observe reads 0.
func printDriverLine(w io.Writer, r *workloadResult, traced bool) error {
	metrics := map[string]driverMetric{}
	if traced {
		for _, m := range perLayer {
			metrics[m.Name] = driverMetric{Value: r.PerLayer[m.Name], Unit: m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			if !m.Contract {
				continue
			}
			v, ok := r.EndToEnd[m.Name]
			if !ok {
				return fmt.Errorf("%s: no %s measured", r.Name, m.Name)
			}
			metrics[m.Name] = driverMetric{Value: v, Unit: m.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(r.Failures) == 0,
		"attempted": max(r.Attempted, 1),
		"failed":    r.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// report is the -out file: every metric plus what is needed to compare
// it with another run.
type report struct {
	Seed       int64             `json:"seed"`
	Scale      string            `json:"scale"`
	Seconds    float64           `json:"seconds,omitempty"`
	Commit     string            `json:"commit"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"nproc"`
	CPUModel   string            `json:"cpu_model"`
	RefBases   int               `json:"reference_bases"`
	BWTBytes   int               `json:"bwt_bytes"`
	SABytes    int               `json:"suffix_array_bytes"`
	Workloads  []*workloadResult `json:"workloads"`
}

func (e *env) report(results []*workloadResult) report {
	return report{
		Seed: e.seed, Scale: e.scale.name, Seconds: e.seconds,
		Commit: e.commit(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: cpuModel(),
		RefBases: e.scale.refLen, BWTBytes: e.scale.refLen / 4, SABytes: e.scale.refLen * 4,
		Workloads: results,
	}
}

// commit names the checked-out commit, or "unknown" outside a git
// repository.
func (e *env) commit() string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = e.root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
