package main

// The five workloads and their untraced (end-to-end) passes. An
// operation is the unit whose latency is sampled and whose failure is
// counted: one Map of a read batch, one process invocation, one job.

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/genome"
	"repro/internal/index"
	"repro/internal/mapper"
	"repro/internal/sam"
	"repro/internal/seed"
	"repro/internal/serve"
)

type kind int

const (
	kindMap   kind = iota // in-memory Pipeline.Map
	kindCLI               // the built cmd/repute binary
	kindServe             // in-process serve.Server behind HTTP
)

// workload is one benchmark input mix. The mapping configuration
// (geometry, selector, options, batch) is shared by the untraced pass,
// the layer replay and the reference stream loop.
type workload struct {
	name string
	why  string
	kind kind
	// sharded selects the 4-shard artifact and shard dispatch; devices is
	// the simulated device count.
	sharded  bool
	devices  int
	selector seed.Selector
	opt      mapper.Options
	// batch is the number of reads one Map call sees; streamBatch is the
	// -batch / ?batch= value of the streaming paths.
	batch       int
	streamBatch int
	exactReads  bool
}

// workloadsFor returns the five workloads at a scale's batch sizes.
func workloadsFor(sc scale) []*workload {
	return []*workload{
		{
			name: "map-dp", kind: kindMap, devices: 1, selector: seed.REPUTE{}, batch: sc.opBatch,
			opt: mapper.Options{MaxErrors: 5, MaxLocations: 100},
			why: "the paper's headline configuration: DP seed selection, so FM rank does most of the work; an occAt or k-mer-table gain must show here",
		},
		{
			name: "map-verify", kind: kindMap, devices: 1, selector: seed.Uniform{}, batch: sc.opBatch,
			opt: mapper.Options{MaxErrors: 5, MaxLocations: 100},
			why: "map-dp with only the selector swapped to uniform seeds: locate, dedup and Myers verification do most of the work and FM rank little",
		},
		{
			name: "map-shard-gk", kind: kindMap, sharded: true, devices: 2, selector: seed.Uniform{}, batch: sc.opBatch,
			opt: mapper.Options{MaxErrors: 2, MaxLocations: 1000, Prefilter: mapper.PrefilterGateKeeper},
			why: "shard dispatch over 4 slices on 2 devices with the GateKeeper prefilter/verify kernel pair: the guard for changes to the fused read-split path",
		},
		{
			name: "cli-exact", kind: kindCLI, devices: 1, selector: seed.REPUTE{}, batch: 512, streamBatch: 512,
			opt: mapper.Options{MaxErrors: 0, MaxLocations: 100}, exactReads: true,
			why: "the built repute binary mapping a small error-free FASTQ at e=0 with checkpoints: a small job on a big index, so index load, FASTQ scan, SAM encode and fsync outweigh seeding",
		},
		{
			name: "serve-jobs", kind: kindServe, devices: 2, selector: seed.REPUTE{}, batch: sc.jobReads, streamBatch: 512,
			opt: mapper.Options{MaxErrors: 5, MaxLocations: 100},
			why: "closed loop of 2 clients submitting 256-read jobs over HTTP: the map-dp path plus spool, job.json, checkpoint and polling, so the gap to map-dp is the service's own cost",
		},
	}
}

func workloadByName(ws []*workload, name string) *workload {
	for _, w := range ws {
		if w.name == name {
			return w
		}
	}
	return nil
}

// workloadResult is everything measured for one workload.
type workloadResult struct {
	Name string `json:"name"`
	// EndToEnd comes from the untraced pass, PerLayer from the traced
	// pass; a metric the workload cannot observe is absent.
	EndToEnd map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// OpCount is the number of latency samples behind op_p50_ms, with
	// their quartiles; Attempted and Failed count operations of every
	// pass run, output-check failures included.
	OpCount   int     `json:"op_count"`
	OpQ1Ms    float64 `json:"op_q1_ms,omitempty"`
	OpQ3Ms    float64 `json:"op_q3_ms,omitempty"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Reads     int     `json:"reads"`
	WallS     float64 `json:"wall_s"`
	// Samples gives the sample count behind each median reported.
	Samples map[string]int `json:"samples"`
	// SelfTimeS is the traced pass's self time per span name.
	SelfTimeS map[string]float64 `json:"self_time_s,omitempty"`
	Failures  []string           `json:"failures,omitempty"`

	spans []span
}

func newResult(name string) *workloadResult {
	return &workloadResult{Name: name, EndToEnd: map[string]float64{}, PerLayer: map[string]float64{},
		Samples: map[string]int{}}
}

// fail counts ops operations as failed for the given reason — an error or
// an output check that did not hold; any failure makes the run incorrect.
func (r *workloadResult) fail(ops int, format string, args ...any) {
	r.Failed += ops
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// setLatencies reports the median operation latency, the p90 once there
// are at least 100 samples (so at least ten lie beyond it) and the
// quartiles.
func (r *workloadResult) setLatencies(latMs []float64) {
	if len(latMs) == 0 {
		return
	}
	s := append([]float64(nil), latMs...)
	sort.Float64s(s)
	r.OpCount = len(s)
	r.EndToEnd["op_p50_ms"] = percentile(s, 50)
	if len(s) >= 100 {
		r.EndToEnd["op_p90_ms"] = percentile(s, 90)
	}
	if len(s) >= 2 {
		r.OpQ1Ms, _, r.OpQ3Ms = quartiles(s)
	}
}

// setSim reports the paper's clock per million reads.
func (r *workloadResult) setSim(simSeconds, energyJ float64, reads int) {
	if reads > 0 {
		r.EndToEnd["sim_s_per_mread"] = simSeconds / float64(reads) * 1e6
		r.EndToEnd["sim_j_per_mread"] = energyJ / float64(reads) * 1e6
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ---- set-up ----

// target is a workload's program state after set-up: the loaded
// artifact and the pipeline or server built over it.
type target struct {
	file  *index.File
	g     *genome.Genome
	p     *core.Pipeline
	srv   *serve.Server
	ts    *httptest.Server
	spool string
}

// close stops the test server and the service and removes the spool; a
// second call does nothing.
func (t *target) close() {
	if t.ts != nil {
		t.ts.Close()
	}
	if t.srv != nil {
		t.srv.Drain()
	}
	if t.spool != "" {
		os.RemoveAll(t.spool)
	}
	t.ts, t.srv, t.spool = nil, nil, ""
}

func devicesFor(n int) []*cl.Device {
	devs := make([]*cl.Device, n)
	for i := range devs {
		devs[i] = cl.SystemOneCPU()
		if n > 1 {
			devs[i].Name += " #" + strconv.Itoa(i)
		}
	}
	return devs
}

// shardsOf returns the artifact's shards; a whole-reference artifact is
// one shard that owns everything.
func shardsOf(f *index.File) []core.Shard {
	shards := make([]core.Shard, len(f.Indexes))
	for i, s := range f.Meta.Shards {
		shards[i] = core.Shard{Index: f.Indexes[i], OwnStart: s.OwnStart, OwnEnd: s.OwnEnd,
			SliceStart: s.SliceStart, SliceEnd: s.SliceEnd}
	}
	return shards
}

// newPipeline builds the workload's mapping pipeline over a loaded
// artifact, the way cmd/repute and serve do.
func newPipeline(f *index.File, w *workload, devices int, exec cl.ExecMode) (*core.Pipeline, error) {
	cfg := core.Config{Name: "REPUTE", Selector: w.selector, Exec: exec}
	if f.Meta.Sharded() {
		return core.NewSharded(shardsOf(f), f.Meta.Overlap, devicesFor(devices), cfg)
	}
	return core.NewFromIndex(f.Indexes[0], devicesFor(devices), cfg)
}

// setup does what the program does between start and its first read:
// load and verify the artifact, rebuild the contig table, construct the
// pipeline or the server. It returns the load share separately.
func (e *env) setup(w *workload, art *artifact) (*target, float64, error) {
	t0 := time.Now()
	f, err := index.LoadFile(art.path)
	if err != nil {
		return nil, 0, err
	}
	loadS := time.Since(t0).Seconds()
	t := &target{file: f}
	if t.g, err = genome.FromContigs(f.Meta.Contigs); err != nil {
		return nil, 0, err
	}
	if w.kind == kindServe {
		if t.spool, err = os.MkdirTemp(e.dir, "spool-"); err != nil {
			return nil, 0, err
		}
		t.srv, err = serve.New(serve.Config{Index: f, Devices: devicesFor(w.devices), Spool: t.spool,
			MaxConcurrent: w.devices, MaxErrors: w.opt.MaxErrors, MaxLocations: w.opt.MaxLocations,
			DefaultBatch: w.streamBatch})
		if err != nil {
			t.close()
			return nil, 0, err
		}
		t.ts = httptest.NewServer(t.srv.Handler())
		return t, loadS, nil
	}
	if t.p, err = newPipeline(f, w, w.devices, cl.Auto); err != nil {
		return nil, 0, err
	}
	return t, loadS, nil
}

// measureSetup repeats set-up and reports the medians; the last
// repetition's state is the one the workload then runs on.
func (e *env) measureSetup(w *workload, art *artifact, reps int, res *workloadResult) (*target, error) {
	var t *target
	var total, load []float64
	for i := 0; i < reps; i++ {
		if t != nil {
			t.close()
		}
		t0 := time.Now()
		next, loadS, err := e.setup(w, art)
		if err != nil {
			return nil, err // the previous repetition's state is already closed
		}
		total = append(total, time.Since(t0).Seconds())
		load = append(load, loadS)
		t = next
	}
	res.EndToEnd["setup_s"] = median(total)
	res.PerLayer["index.load_s"] = median(load)
	res.Samples["setup_s"] = reps
	return t, nil
}

// ---- measured-phase pacing ----

// phase decides when a measured phase ends: after a fixed number of
// operations, or — in a time-bounded run — once the time is up.
type phase struct {
	start   time.Time
	seconds float64
	fixed   int
}

func (e *env) newPhase(fixedOps int) phase {
	return phase{start: time.Now(), seconds: e.seconds, fixed: fixedOps}
}

// more reports whether operation i (0-based) should start.
func (p phase) more(i int) bool {
	if p.seconds > 0 {
		return time.Since(p.start).Seconds() < p.seconds
	}
	return i < p.fixed
}

// ---- map workloads ----

func (e *env) runMapUntraced(w *workload, t *target, rs *readSet, res *workloadResult) error {
	if _, err := t.p.Map(rs.warmup, w.opt); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	nb := len(rs.reads) / w.batch
	mappings := make([][]mapper.Mapping, 0, len(rs.reads))
	lat := make([]float64, 0, nb)
	var simS, energyJ float64
	reads := 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph := e.newPhase(nb)
	for i := 0; ph.more(i); i++ {
		lo := (i % nb) * w.batch
		b := rs.reads[lo : lo+w.batch]
		t0 := time.Now()
		r, err := t.p.Map(b, w.opt)
		d := time.Since(t0)
		res.Attempted++
		if err != nil {
			res.fail(1, "op %d: %v", i, err)
			r = &mapper.Result{Mappings: make([][]mapper.Mapping, len(b))}
		} else {
			lat = append(lat, ms(d))
			reads += len(b)
			simS += r.SimSeconds
			energyJ += r.EnergyJ
		}
		if i < nb {
			mappings = append(mappings, r.Mappings...)
		}
	}
	wall := time.Since(ph.start).Seconds()
	runtime.ReadMemStats(&m1)
	if res.Attempted > nb {
		e.logf("%s: read set exhausted, %d of %d operations re-mapped earlier reads", w.name, res.Attempted-nb, res.Attempted)
	}

	res.Reads = reads
	res.WallS = wall
	res.setLatencies(lat)
	res.setSim(simS, energyJ, reads)
	if reads > 0 {
		res.EndToEnd["reads_per_s"] = float64(reads) / wall
		res.EndToEnd["alloc_bytes_per_read"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(reads)
	}
	res.EndToEnd["sensitivity"] = eval.Sensitivity(mappings, rs.origins[:len(mappings)],
		w.opt.MaxErrors, int32(w.opt.MaxErrors))

	// Output check: the first two batches re-mapped on the same geometry
	// with serial execution and the prefilter off must give identical
	// mappings.
	serial, err := newPipeline(t.file, w, w.devices, cl.Serial)
	if err != nil {
		return err
	}
	plain := w.opt
	plain.Prefilter = mapper.PrefilterOff
	for i := 0; i < 2 && (i+1)*w.batch <= len(mappings); i++ {
		lo := i * w.batch
		r, err := serial.Map(rs.reads[lo:lo+w.batch], plain)
		if err != nil {
			return fmt.Errorf("output check: %w", err)
		}
		if same, at := eval.IdenticalMappings(r.Mappings, mappings[lo:lo+w.batch]); !same {
			res.fail(1, "batch %d: mappings differ from the serial, unfiltered run at read %d", i, lo+at)
		}
	}
	return nil
}

// ---- cli-exact ----

// buildBinary compiles cmd/repute once per invocation.
func (e *env) buildBinary() (string, error) {
	if e.binary != "" {
		return e.binary, nil
	}
	bin := filepath.Join(e.dir, "repute")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/repute")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/repute: %v\n%s", err, out)
	}
	e.binary = bin
	return bin, nil
}

// cliPaths are the files one `repute map` invocation reads and writes.
type cliPaths struct{ fastq, sam, ckpt string }

// cliPaths writes FASTQ file k of the read set — reads [k·n, (k+1)·n) —
// and names the output files every invocation overwrites.
func (e *env) cliPaths(rs *readSet, k int) (cliPaths, error) {
	n := e.scale.reads["cli-exact"]
	p := cliPaths{
		fastq: filepath.Join(e.dir, fmt.Sprintf("exact.%d.fq", k)),
		sam:   filepath.Join(e.dir, "out.sam"),
		ckpt:  filepath.Join(e.dir, "run.ckpt"),
	}
	return p, os.WriteFile(p.fastq, fastqOf(rs.reads, k*n, (k+1)*n), 0o644)
}

// invoke runs the binary once and returns its wall time and peak RSS.
//
// The peak is the last VmHWM (the kernel's high-water mark of the
// process's resident set) read from /proc while the process ran, not
// ru_maxrss: Go starts children by vfork, and on exec Linux folds the old
// address space's high-water mark — the harness's own, index and reads
// included — into the child's ru_maxrss, which then reports the harness.
// The index is resident from the first fraction of a second on, so a
// 10 ms poll misses nothing that matters.
func (e *env) invoke(w *workload, art *artifact, p cliPaths) (wallS, rssMB float64, err error) {
	bin, err := e.buildBinary()
	if err != nil {
		return 0, 0, err
	}
	cmd := exec.Command(bin, "map", "-index", art.path, "-reads", p.fastq,
		"-e", strconv.Itoa(w.opt.MaxErrors), "-batch", strconv.Itoa(w.streamBatch),
		"-checkpoint", p.ckpt, "-out", p.sam)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, 0, err
	}
	exited := make(chan struct{})
	peak := make(chan float64)
	go func() { peak <- pollHWM(cmd.Process.Pid, exited) }()
	err = cmd.Wait()
	wallS = time.Since(t0).Seconds()
	close(exited)
	rssMB = <-peak
	if err != nil {
		return wallS, 0, fmt.Errorf("%v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return wallS, rssMB, nil
}

// pollHWM reads the process's VmHWM every 10 ms until exited is closed
// and returns the last value in MB (0 where /proc does not offer it).
func pollHWM(pid int, exited <-chan struct{}) float64 {
	status := fmt.Sprintf("/proc/%d/status", pid)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	hwmKB := 0.0
	for {
		select {
		case <-exited:
			return hwmKB / 1024
		case <-tick.C:
		}
		data, err := os.ReadFile(status)
		if err != nil {
			continue
		}
		if _, rest, ok := strings.Cut(string(data), "VmHWM:"); ok {
			if fields := strings.Fields(rest); len(fields) > 0 {
				if v, err := strconv.ParseFloat(fields[0], 64); err == nil {
					hwmKB = v
				}
			}
		}
	}
}

// runCLIUntraced invokes the binary on the read set's FASTQ files in
// turn. Several files, not one: every invocation maps few reads, and the
// simulated cost of so few spreads by 8 % from seed to seed; summed over
// the files it is steadier.
func (e *env) runCLIUntraced(w *workload, t *target, art *artifact, rs *readSet, res *workloadResult) error {
	perFile := e.scale.reads[w.name]
	files := make([]cliPaths, len(rs.reads)/perFile)
	want := make([][]byte, len(files)) // the in-process stream loop's SAM per file
	for k := range files {
		var err error
		if files[k], err = e.cliPaths(rs, k); err != nil {
			return err
		}
		if want[k], _, err = e.streamReference(w, t, files[k].fastq, perFile, nil); err != nil {
			return fmt.Errorf("reference stream loop: %w", err)
		}
	}
	if _, _, err := e.invoke(w, art, files[0]); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	var wallMs, rss []float64
	// Simulated totals and read counts come from what the program
	// exported: the final checkpoint of each file's first invocation.
	ckpts := make([]*checkpoint.State, len(files))
	ph := e.newPhase(e.scale.cliRuns)
	for i := 0; ph.more(i); i++ {
		k := i % len(files)
		wallS, rssMB, err := e.invoke(w, art, files[k])
		res.Attempted++
		if err == nil {
			var got []byte
			if got, err = os.ReadFile(files[k].sam); err == nil && !bytes.Equal(got, want[k]) {
				err = fmt.Errorf("SAM differs from the in-process stream loop's (%d vs %d bytes)", len(got), len(want[k]))
			}
		}
		if err == nil && ckpts[k] == nil {
			ckpts[k], err = checkpoint.Load(files[k].ckpt)
		}
		if err != nil {
			res.fail(1, "invocation %d: %v", i, err)
			continue
		}
		wallMs = append(wallMs, wallS*1e3)
		rss = append(rss, rssMB)
		res.Reads += ckpts[k].Reads
	}
	res.WallS = time.Since(ph.start).Seconds()
	res.setLatencies(wallMs)
	if len(wallMs) == 0 {
		return nil
	}

	var simS, energyJ float64
	reads := 0
	var mappings [][]mapper.Mapping
	for k, st := range ckpts {
		if st == nil {
			continue // a time-bounded run too short to reach this file
		}
		simS += st.SimSeconds
		energyJ += st.EnergyJ
		reads += st.Reads
		got := make([][]mapper.Mapping, perFile)
		if err := mappingsFromSAM(got, k*perFile, want[k]); err != nil {
			return err
		}
		mappings = append(mappings, got...)
	}
	res.setSim(simS, energyJ, reads)
	res.EndToEnd["reads_per_s"] = float64(perFile) / (res.EndToEnd["op_p50_ms"] / 1e3)
	if peak := median(rss); peak > 0 { // 0: no /proc to read it from
		res.EndToEnd["peak_rss_mb"] = peak
	}
	res.EndToEnd["sensitivity"] = eval.Sensitivity(mappings, rs.origins[:len(mappings)],
		w.opt.MaxErrors, int32(w.opt.MaxErrors))
	return nil
}

// mappingsFromSAM parses SAM text back onto the read axis: the records
// named r<i> fill out[i-lo].
func mappingsFromSAM(out [][]mapper.Mapping, lo int, text []byte) error {
	recs, err := sam.Parse(bytes.NewReader(text))
	if err != nil {
		return err
	}
	for name, ms := range sam.GroupByRead(recs) {
		i, err := strconv.Atoi(strings.TrimPrefix(name, "r"))
		if err != nil || i < lo || i >= lo+len(out) {
			return fmt.Errorf("unexpected read name %q in SAM", name)
		}
		out[i-lo] = ms
	}
	return nil
}
