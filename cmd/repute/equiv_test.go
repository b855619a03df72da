package main

// The process-level equivalence harness (DESIGN.md §15 "Process
// harness"): an all-pairs set of `repute map` runs and `repute serve`
// jobs through the built binary, each held to one property, and a fixed
// list of inputs the binary must refuse by name. The property: however a
// run was entered, indexed, batched, filtered, faulted, cut and resumed,
// its final SAM equals, byte for byte, the uninterrupted `repute map -ref`
// SAM of the same reads and -cigar, and the paired one equals
// testdata/paired.sam.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"mime/multipart"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/allpairs"
	"repro/internal/checkpoint"
	"repro/internal/serve"
)

// The axes of a configuration.
const (
	axEntry     = iota // repute map, a repute serve job over HTTP
	axIndex            // -ref, a whole .ridx, a 3-shard .ridx
	axReads            // single-end, paired
	axBatch            // whole input, 7, 1
	axPrefilter        // off, gatekeeper
	axCigar            // off, on
	axFaults           // none, the CI plan, a lost device on system1
	axStop             // none, killed and resumed, SIGTERM then resumed
	axOut              // -out file, stdout
	axProcs            // default GOMAXPROCS, GOMAXPROCS=1
	nAxes
)

const (
	entryMap, entryServe              = 0, 1
	indexRef, indexWhole, indexShards = 0, 1, 2
	readsPaired                       = 1
	batch7                            = 1
	faultsNone, faultsCI, faultsLoss  = 0, 1, 2
	stopNone, stopKill, stopTerm      = 0, 1, 2
	outStdout                         = 1
	procsOne                          = 1
)

var (
	space = allpairs.Space{Sizes: []int{2, 3, 2, 3, 2, 2, 3, 3, 2, 2}, Valid: valid}

	batchSizes = [...]int{0, 7, 1}
	// faultPlans is the fault axis: a plan for REPUTE_CL_FAULTS (the CLI)
	// or X-Repute-Faults (a serve job). The lost device is the second of
	// three for the CLI (system1, split 1,2,1 so that even a one-read
	// batch reaches it) and of a two-device partition of the same pool
	// for a serve job; 0.001 throttles hard enough that the service's
	// hang watchdog fires first.
	faultPlans = [...]string{"", "enq2=oor,alloc3=alloc,throttle4-6=0.5", "device=2,throttle1-2=0.001,enq3=lost"}
	axisValues = [nAxes][]string{
		{"map", "serve"}, {"ref", "ridx", "shards"}, {"single", "paired"}, {"whole", "b7", "b1"},
		{"nofilter", "gatekeeper"}, {"nocigar", "cigar"}, {"clean", "ciplan", "devloss"},
		{"once", "killed", "sigterm"}, {"file", "stdout"}, {"procs", "procs1"},
	}
)

type config [nAxes]int

// valid removes the configurations that cannot run: a serve job maps a
// loaded artifact, single-end only (paired jobs are not part of the
// service), and is fetched over HTTP, so it has no -ref, paired or stdout
// form; an interrupted run resumes at a batch boundary from a checkpoint,
// which binds a SAM file, so it needs batch > 0 and -out. (The
// lost-device plan carries its own multi-device platform.)
func valid(c []int) bool {
	switch {
	case c[axEntry] == entryServe && (c[axIndex] == indexRef || c[axReads] == readsPaired || c[axOut] == outStdout):
		return false
	case c[axStop] != stopNone && (batchSizes[c[axBatch]] == 0 || c[axOut] == outStdout):
		return false
	}
	return true
}

func (c config) String() string {
	parts := make([]string, nAxes)
	for ax, v := range c {
		parts[ax] = axisValues[ax][v]
	}
	return strings.Join(parts, "-")
}

// batches is how many batches c's input makes: 60 reads, or 30 fragments.
func (c config) batches() int {
	n := 60
	if c[axReads] == readsPaired {
		n = 30
	}
	if b := batchSizes[c[axBatch]]; b > 0 {
		return (n + b - 1) / b
	}
	return 1
}

// env is c's extra environment: GOMAXPROCS, and the fault plan of a CLI
// run (a serve job carries its plan in a header).
func (c config) env() []string {
	var env []string
	if plan := faultPlans[c[axFaults]]; plan != "" && c[axEntry] == entryMap {
		env = append(env, "REPUTE_CL_FAULTS="+plan)
	}
	if c[axProcs] == procsOne {
		// One worker leaves the work-group scheduler nothing to
		// parallelise: every kernel takes the serial path.
		env = append(env, "GOMAXPROCS=1")
	}
	return env
}

// canon pins into the set the configuration of each CLI test that the
// harness replaced (axis values in axis order, missing ones 0), and that
// test runs it under its old name. TestProcessEquivalence runs the rest
// of the set.
var canon = []struct {
	test string
	c    []byte
}{
	{"TestStreamedMatchesInMemory", []byte{entryMap, indexWhole}},
	{"TestStreamedChaosHonoursDevice", []byte{entryMap, indexWhole, 0, batch7, 0, 0, faultsLoss}},
	{"TestKillAndResume", []byte{entryMap, indexWhole, 0, batch7, 0, 0, faultsNone, stopKill}},
	{"TestKillAndResumeUnderFaults", []byte{entryMap, indexWhole, 0, batch7, 0, 0, faultsCI, stopKill}},
	{"TestSigtermFlushesCheckpoint", []byte{entryMap, indexWhole, 0, batch7, 0, 0, faultsNone, stopTerm}},
	{"TestPrefilterCLIEquivalence", []byte{entryMap, indexWhole, readsPaired, batch7, 1}},
	{"TestPrefilterKillAndResume", []byte{entryMap, indexWhole, 0, batch7, 1, 0, faultsNone, stopKill}},
	{"TestShardedArtifactMatchesWholeAndRef", []byte{entryMap, indexShards, 0, 0, 0, 1}},
	{"TestShardedKillAndResume", []byte{entryMap, indexShards, readsPaired, batch7, 0, 0, faultsNone, stopKill}},
}

// drawn is the all-pairs set: canon, then draws.
var drawn = sync.OnceValue(func() [][]int {
	pinned := make([][]byte, len(canon))
	for i, p := range canon {
		pinned[i] = p.c
	}
	return space.Draw(1, pinned...)
})

func TestStreamedMatchesInMemory(t *testing.T)           { runOwned(t) }
func TestStreamedChaosHonoursDevice(t *testing.T)        { runOwned(t) }
func TestKillAndResume(t *testing.T)                     { runOwned(t) }
func TestKillAndResumeUnderFaults(t *testing.T)          { runOwned(t) }
func TestSigtermFlushesCheckpoint(t *testing.T)          { runOwned(t) }
func TestPrefilterCLIEquivalence(t *testing.T)           { runOwned(t) }
func TestPrefilterKillAndResume(t *testing.T)            { runOwned(t) }
func TestShardedArtifactMatchesWholeAndRef(t *testing.T) { runOwned(t) }
func TestShardedKillAndResume(t *testing.T)              { runOwned(t) }

// runOwned runs the configurations of the set that t owns.
func runOwned(t *testing.T) {
	for i, d := range drawn() {
		owner := "TestProcessEquivalence"
		if i < len(canon) {
			owner = canon[i].test
		}
		if c := config(d); owner == t.Name() {
			t.Run(c.String(), func(t *testing.T) { check(t, c) })
		}
	}
}

// TestProcessEquivalence fails if any pair of axis values that a valid
// configuration can hold is missing from the set, and runs the set
// beyond canon.
func TestProcessEquivalence(t *testing.T) {
	if missing := space.Uncovered(drawn()); len(missing) > 0 {
		t.Fatalf("no configuration holds the axis-value pairs %v", missing)
	}
	t.Logf("%d configurations", len(drawn()))
	runOwned(t)
}

// check runs c and holds its final SAM to the baseline.
func check(t *testing.T, c config) {
	want := baseline(t, c)
	var got []byte
	if c[axEntry] == entryServe {
		got = viaServe(t, c)
	} else {
		got = viaMap(t, c)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("final SAM (%d bytes) differs from the uninterrupted `repute map -ref` SAM (%d bytes)", len(got), len(want))
	}
}

// baselines caches baseline by reads and -cigar.
var baselines = map[[2]int][]byte{}

// baseline is the uninterrupted `repute map -ref` SAM of c's reads and
// -cigar. The paired one without -cigar must also equal
// testdata/paired.sam, which -update rewrites from it.
func baseline(t *testing.T, c config) []byte {
	key := [2]int{c[axReads], c[axCigar]}
	if b, ok := baselines[key]; ok {
		return b
	}
	out := filepath.Join(t.TempDir(), "baseline.sam")
	args := append([]string{"map", "-ref", refPath, "-out", out}, readArgs(c)...)
	if c[axCigar] == 1 {
		args = append(args, "-cigar")
	}
	if msg, err := runRepute(t, nil, args...); err != nil {
		t.Fatalf("baseline: %v\n%s", err, msg)
	}
	b := readFile(t, out)
	if golden := filepath.Join("testdata", "paired.sam"); key == [2]int{readsPaired, 0} {
		if *update {
			if err := os.WriteFile(golden, b, 0o644); err != nil {
				t.Fatal(err)
			}
		} else if !bytes.Equal(b, readFile(t, golden)) {
			t.Fatalf("paired SAM differs from %s", golden)
		}
	}
	baselines[key] = b
	return b
}

func readArgs(c config) []string {
	if c[axReads] == readsPaired {
		// The narrow insert band leaves some fragments discordant.
		return []string{"-reads", mates1Path, "-reads2", mates2Path, "-max-insert", "330"}
	}
	return []string{"-reads", readsPath}
}

// viaMap runs c through `repute map` and returns its final SAM.
func viaMap(t *testing.T, c config) []byte {
	dir := t.TempDir()
	args := []string{"map", "-index", []string{"", indexPath, shardsPath}[c[axIndex]]}
	if c[axIndex] == indexRef {
		args = []string{"map", "-ref", refPath}
	}
	args = append(args, readArgs(c)...)
	if b := batchSizes[c[axBatch]]; b > 0 {
		args = append(args, "-batch", strconv.Itoa(b))
	}
	if c[axPrefilter] == 1 {
		args = append(args, "-prefilter", "gatekeeper")
	}
	if c[axCigar] == 1 {
		args = append(args, "-cigar")
	}
	env := c.env()
	devices := 1
	if c[axFaults] == faultsLoss {
		devices = 3
		args = append(args, "-platform", "system1")
		if c[axIndex] != indexShards { // shard dispatch deals one slice per device
			args = append(args, "-split", "1,2,1")
		}
	}
	sam, ckpt, prom := filepath.Join(dir, "out.sam"), filepath.Join(dir, "run.ckpt"), filepath.Join(dir, "run.prom")
	if c[axOut] != outStdout {
		args = append(args, "-out", sam)
		if batchSizes[c[axBatch]] > 0 {
			args = append(args, "-checkpoint", ckpt)
		}
	}
	resume := append(args[:len(args):len(args)], "-resume")
	switch c[axStop] {
	case stopKill:
		// Killed at every batch boundary in turn, the last included: each
		// run maps one batch and dies, and the next resumes it. Each kill
		// leaves a torn record past the checkpointed prefix, as a crash
		// between a batch's SAM write and its checkpoint does.
		for k := 1; k <= c.batches(); k++ {
			run := resume
			if k == 1 {
				run = args
			}
			if out, err := runRepute(t, append(env, "REPUTE_KILL_AFTER_BATCH=1"), run...); err == nil {
				t.Fatalf("process survived its kill after batch %d\n%s", k, out)
			}
			appendTornRecord(t, sam)
		}
		args = resume
	case stopTerm:
		sigterm(t, env, args, sam, ckpt, baseline(t, c))
		args = resume
	}

	cmd := exec.Command(binPath, append(args, "-metrics-out", prom)...)
	cmd.Env = append(cleanEnv(), env...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	// The summary counts the batches of every run that led here, and
	// lists the busy time of each device that mapped reads, in name order:
	// every device, unless a batch is too small to reach them all.
	var busy []string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasSuffix(line, "s busy") {
			busy = append(busy, line)
		}
	}
	// (The 1,2,1 split, by largest remainder, gives the one read of a
	// -batch 1 batch to device 2 and a pair's two reads to devices 1 and 2;
	// every device gets reads once a batch holds one read per device.)
	perBatch := batchSizes[c[axBatch]] * (1 + c[axReads])
	allBusy := c[axIndex] == indexShards || perBatch == 0 || perBatch >= devices
	if !strings.Contains(stderr.String(), fmt.Sprintf("in %d batch(es)", c.batches())) ||
		len(busy) == 0 || len(busy) > devices || allBusy && len(busy) != devices || !slices.IsSorted(busy) {
		t.Errorf("summary: want %d batches and %d busy lines in name order:\n%s", c.batches(), devices, stderr.String())
	}
	// Filtered or not, one map kernel runs; only a filtered one counts
	// rejections. (A resume after a kill at the last boundary maps none.)
	// A lost device fails its reads over to the others, and its breaker
	// quarantines it. It is lost at its third enqueue: in a batched run
	// that is in the third batch, since a batch of 7 reads or fewer is too
	// little work for the 0.001 throttle to overrun the hang watchdog's
	// budget; a whole-input run's one batch reaches it after the watchdog
	// killed the two throttled enqueues. The cooldown back-off (DESIGN.md
	// §17) bounds the failovers of B batches after the loss by
	// 1 + ⌊log₂(B+1)⌋, so a process that maps at most c.batches() batches
	// fails over at most 1 + ⌊log₂ c.batches()⌋ times.
	if m := string(readFile(t, prom)); c[axStop] != stopKill {
		if !strings.Contains(m, "REPUTE-map") || strings.Contains(m, "REPUTE-prefilter") {
			t.Errorf("metrics: want only the map kernel:\n%s", m)
		}
		if filtered := strings.Contains(m, "prefilter_rejected_total"); filtered != (c[axPrefilter] == 1) {
			t.Errorf("metrics: want prefilter counters iff -prefilter gatekeeper:\n%s", m)
		}
		if c[axFaults] == faultsLoss {
			lost := c[axStop] == stopNone && c.batches() >= 3
			failovers, quarantined := promCounter(m, "failovers_total"), promCounter(m, "device_quarantined_total")
			if bound := bits.Len(uint(c.batches())); failovers > bound || lost && failovers < 1 {
				t.Errorf("metrics: failovers_total %d, want 1 to %d for a lost device over %d batches:\n%s", failovers, bound, c.batches(), m)
			}
			if lost && quarantined < 1 {
				t.Errorf("metrics: device_quarantined_total %d, want the lost device quarantined:\n%s", quarantined, m)
			}
		}
	}
	if c[axOut] == outStdout {
		return stdout.Bytes()
	}
	return readFile(t, sam)
}

// promCounter is the value of the Prometheus counter name in m, 0 when
// it is absent.
func promCounter(m, name string) int {
	v := regexp.MustCompile("(?m)^" + name + " ([0-9]+)$").FindStringSubmatch(m)
	if v == nil {
		return 0
	}
	n, _ := strconv.Atoi(v[1]) // the pattern admits digits only
	return n
}

// appendTornRecord appends half a SAM record to path.
func appendTornRecord(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err == nil {
		_, err = f.WriteString("torn\t0\tchr21s\t1")
		err = errors.Join(err, f.Close())
	}
	if err != nil {
		t.Fatal(err)
	}
}

// sigterm starts a slowed `repute map`, sends SIGTERM once its first
// checkpoint exists, and holds the graceful stop: exit 1 naming the
// interruption, and a SAM that is exactly the checkpointed prefix of want.
func sigterm(t *testing.T, env, args []string, sam, ckpt string, want []byte) {
	cmd := exec.Command(binPath, args...)
	cmd.Env = append(append(cleanEnv(), env...), "REPUTE_STREAM_BATCH_DELAY_MS=100")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // reaped below or already gone
	poll(t, "the first checkpoint", func() bool { _, err := os.Stat(ckpt); return err == nil })
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var ee *exec.ExitError
	if err := cmd.Wait(); !errors.As(err, &ee) || ee.ExitCode() != 1 || !strings.Contains(stderr.String(), "interrupted") {
		t.Fatalf("SIGTERM: want exit 1 naming the interruption, got %v\n%s", err, stderr.String())
	}
	st, err := checkpoint.Load(ckpt)
	if err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	if got := readFile(t, sam); st.Batches < 1 || st.SAMBytes > int64(len(want)) || !bytes.Equal(got, want[:st.SAMBytes]) {
		t.Fatalf("after SIGTERM the SAM (%d bytes) is not the checkpointed prefix (%d bytes, %d batches)",
			len(got), st.SAMBytes, st.Batches)
	}
}

// poll waits up to 20 s for cond.
func poll(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// viaServe runs c as one job of `repute serve` and returns the SAM it
// serves. An interrupted job's server is SIGKILLed (or SIGTERMed) once
// the job reports progress, and a second server over the same spool
// finishes it.
func viaServe(t *testing.T, c config) []byte {
	spool := t.TempDir()
	idx := indexPath
	if c[axIndex] == indexShards {
		idx = shardsPath
	}
	env := c.env()
	if c[axStop] != stopNone {
		env = append(env, "REPUTE_STREAM_BATCH_DELAY_MS=50")
	}
	srv := startServe(t, idx, spool, env)
	query := fmt.Sprintf("?prefilter=%s&cigar=%t", []string{"off", "gatekeeper"}[c[axPrefilter]], c[axCigar] == 1)
	if b := batchSizes[c[axBatch]]; b > 0 {
		query += fmt.Sprintf("&batch=%d", b)
	}
	if c[axFaults] == faultsLoss {
		query += "&devices=2"
	}
	id := srv.submit(t, query, faultPlans[c[axFaults]])

	if c[axStop] != stopNone {
		poll(t, "the job's first batch", func() bool { return srv.status(t, id).Reads > 0 })
		if c[axStop] == stopKill {
			if _, err := srv.stop(t, os.Kill); err == nil {
				t.Fatal("SIGKILLed server exited zero")
			}
			if j := readFile(t, filepath.Join(spool, id, "job.json")); bytes.Contains(j, []byte(`"state": "done"`)) {
				t.Fatalf("job finished before the SIGKILL:\n%s", j)
			}
			appendTornRecord(t, filepath.Join(spool, id, "out.sam"))
		} else {
			if code := srv.get(t, "/readyz", nil); code != http.StatusOK {
				t.Errorf("readyz mid-job = %d, want 200", code)
			}
			if log, err := srv.stop(t, syscall.SIGTERM); err == nil || !strings.Contains(log, id+" interrupted after") {
				t.Fatalf("drain mid-job: want a nonzero exit naming %s interrupted, got %v\n%s", id, err, log)
			}
			if j := readFile(t, filepath.Join(spool, id, "job.json")); !bytes.Contains(j, []byte(`"state": "interrupted"`)) {
				t.Fatalf("drained job.json is not interrupted:\n%s", j)
			}
		}
		srv = startServe(t, idx, spool, c.env())
	}
	poll(t, "the job to finish", func() bool {
		j := srv.status(t, id)
		if j.State == serve.StateFailed {
			t.Fatalf("job failed: %+v", j.Error)
		}
		return j.State == serve.StateDone
	})
	if j := srv.status(t, id); j.Reads != 60 {
		t.Errorf("job mapped %d reads, want 60", j.Reads)
	}
	var sam, prom bytes.Buffer
	if code := srv.get(t, "/jobs/"+id+"/sam", &sam); code != http.StatusOK {
		t.Fatalf("GET sam = %d", code)
	}
	srv.get(t, "/metrics?format=prom", &prom)
	want := []string{`serve_jobs_completed_total 1`}
	if c[axStop] != stopNone {
		want = append(want, `serve_jobs_resumed_total [1-9]\d*`)
	} else if c[axFaults] == faultsLoss {
		// The breaker quarantined the lost device, and the watchdog killed
		// its throttled enqueues. A one-read batch of a whole index goes to
		// the partition's first device alone, and one read is too little
		// work for the throttle to overrun the watchdog's budget.
		if batchSizes[c[axBatch]] != 1 || c[axIndex] == indexShards {
			want = append(want, `device_quarantined_total [1-9]\d*`, `# TYPE device_breaker_state gauge`)
		}
		if batchSizes[c[axBatch]] != 1 {
			want = append(want, `watchdog_fired_total [1-9]\d*`)
		}
	}
	for _, re := range want {
		if !regexp.MustCompile("(?m)^" + re + "$").Match(prom.Bytes()) {
			t.Errorf("/metrics?format=prom lacks %q:\n%s", re, prom.String())
		}
	}
	// A drain with nothing in flight exits zero.
	if log, err := srv.stop(t, syscall.SIGTERM); err != nil || !strings.Contains(log, "drained clean") {
		t.Errorf("idle drain: %v\n%s", err, log)
	}
	return sam.Bytes()
}

// server is one `repute serve` process on a free loopback port.
type server struct {
	*exec.Cmd
	url, log string // its base URL, and the file holding its stderr
}

var listening = regexp.MustCompile(`listening on (\S+)`)

// startServe starts `repute serve` over idx and spool with the extra
// environment and waits for the address it bound.
func startServe(t *testing.T, idx, spool string, env []string) *server {
	t.Helper()
	s := &server{Cmd: exec.Command(binPath, "serve", "-index", idx, "-spool", spool, "-addr", "127.0.0.1:0"),
		log: filepath.Join(t.TempDir(), "stderr")}
	f, err := os.Create(s.log)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s.Env, s.Stderr = append(cleanEnv(), env...), f
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Process.Kill(); s.Wait() }) //nolint:errcheck // usually reaped already
	poll(t, "serve to listen", func() bool {
		m := listening.FindSubmatch(readFile(t, s.log))
		if m != nil {
			s.url = "http://" + string(m[1])
		}
		return m != nil
	})
	return s
}

// stop sends sig and returns the server's stderr and exit error.
func (s *server) stop(t *testing.T, sig os.Signal) (string, error) {
	t.Helper()
	s.Process.Signal(sig) //nolint:errcheck // Wait reports it
	err := s.Wait()
	return string(readFile(t, s.log)), err
}

// submit posts the single-end reads as a job and returns its ID.
func (s *server) submit(t *testing.T, query, faults string) string {
	t.Helper()
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	fw, err := mw.CreateFormFile("reads", "reads.fq")
	if err == nil {
		_, err = fw.Write(readFile(t, readsPath))
	}
	if err = errors.Join(err, mw.Close()); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, s.url+"/jobs"+query, &body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", mw.FormDataContentType())
	if faults != "" {
		req.Header.Set("X-Repute-Faults", faults)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j serve.Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil || resp.StatusCode != http.StatusAccepted || j.ID == "" {
		t.Fatalf("submit %s = %d %+v (%v)", query, resp.StatusCode, j, err)
	}
	return j.ID
}

func (s *server) status(t *testing.T, id string) serve.Job {
	t.Helper()
	var b bytes.Buffer
	var j serve.Job
	if code := s.get(t, "/jobs/"+id, &b); code != http.StatusOK {
		t.Fatalf("GET job = %d: %s", code, b.String())
	}
	if err := json.Unmarshal(b.Bytes(), &j); err != nil {
		t.Fatal(err)
	}
	return j
}

// get fetches path into body (nil discards it) and returns the status.
func (s *server) get(t *testing.T, path string, body *bytes.Buffer) int {
	t.Helper()
	resp, err := http.Get(s.url + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if body != nil {
		if _, err := body.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// The refusal list: inputs `repute map` must refuse, each with its named
// error, before it writes a byte of SAM over them.

// checkpointed is a -batch 7 map of the single-end reads to out with a
// checkpoint beside it.
func checkpointed(out string, extra ...string) []string {
	return append([]string{"map", "-index", indexPath, "-reads", readsPath, "-batch", "7",
		"-out", out, "-checkpoint", out + ".ckpt"}, extra...)
}

// killed leaves a checkpointed run killed after its k-th batch and
// returns its SAM path and its resume arguments.
func killed(t *testing.T, k int, extra ...string) (sam string, resume []string) {
	t.Helper()
	sam = filepath.Join(t.TempDir(), "run.sam")
	if out, err := runRepute(t, []string{fmt.Sprint("REPUTE_KILL_AFTER_BATCH=", k)}, checkpointed(sam, extra...)...); err == nil {
		t.Fatalf("kill hook did not fire\n%s", out)
	}
	return sam, checkpointed(sam, append(extra, "-resume")...)
}

// refuse runs args and requires a failure whose output names every want.
func refuse(t *testing.T, args []string, want ...string) {
	t.Helper()
	out, err := runRepute(t, nil, args...)
	if err == nil {
		t.Fatalf("%v accepted\n%s", args, out)
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("error does not name %q:\n%s", w, out)
		}
	}
}

// TestCorruptIndexRejected: flipped bytes, a truncation and a trailing
// byte each stop `map -index` with the diagnosis.
func TestCorruptIndexRejected(t *testing.T) {
	dir := t.TempDir()
	blob := readFile(t, indexPath)
	flip := func(at int) []byte { b := bytes.Clone(blob); b[at] ^= 0x40; return b }
	for i, tc := range []struct {
		index []byte
		want  string
	}{
		{flip(len(blob) / 4), "checksum mismatch in section"},
		{flip(len(blob) / 2), "checksum mismatch in section"},
		{flip(len(blob) - 10), "checksum mismatch in section"},
		{blob[:len(blob)/3], "invalid index container"},
		// The digest names the sections, not what follows the last one.
		{append(readFile(t, shardsPath), 'x'), "1 bytes after the last section"},
	} {
		bad := filepath.Join(dir, fmt.Sprintf("bad%d.ridx", i))
		if err := os.WriteFile(bad, tc.index, 0o644); err != nil {
			t.Fatal(err)
		}
		refuse(t, []string{"map", "-index", bad, "-reads", readsPath, "-out", filepath.Join(dir, "never.sam")},
			tc.want, "rebuild with `repute index build`")
	}
}

// TestResumeRefusesShortSAM: output lost after a save (a power cut
// before the bytes reached the disk) stops the resume with the file and
// both sizes; zero-extending it would leave a hole.
func TestResumeRefusesShortSAM(t *testing.T) {
	sam, resume := killed(t, 3)
	st, err := checkpoint.Load(sam + ".ckpt")
	if err != nil {
		t.Fatal(err)
	}
	short := st.SAMBytes / 2
	if err := os.Truncate(sam, short); err != nil {
		t.Fatal(err)
	}
	refuse(t, resume, sam, fmt.Sprint(short), fmt.Sprint(st.SAMBytes))
	if b := readFile(t, sam); int64(len(b)) != short {
		t.Errorf("refused resume rewrote the SAM: %d bytes, want %d", len(b), short)
	}
}

// TestStaleCheckpointRejected: a checkpoint binds the mapping options, so
// a resume under others fails with the fingerprint mismatch; the right
// options still resume byte-identically.
func TestStaleCheckpointRejected(t *testing.T) { staleResume(t, nil, []string{"-e", "3"}) }

// TestPrefilterCheckpointFingerprint: the bound options include the filter
// configuration, though it changes no SAM byte, so a checkpoint taken with
// -prefilter gatekeeper refuses a resume without it.
func TestPrefilterCheckpointFingerprint(t *testing.T) {
	staleResume(t, []string{"-prefilter", "gatekeeper"}, nil)
}

// staleResume kills a checkpointed run with the options run, requires a
// resume with the options stale instead to be refused, then resumes it
// with run to the uninterrupted SAM.
func staleResume(t *testing.T, run, stale []string) {
	sam, resume := killed(t, 2, run...)
	refuse(t, checkpointed(sam, append(stale, "-resume")...), "fingerprint mismatch")
	if out, err := runRepute(t, nil, resume...); err != nil {
		t.Fatalf("legitimate resume: %v\n%s", err, out)
	}
	if !bytes.Equal(readFile(t, sam), baseline(t, config{})) {
		t.Error("resumed SAM differs from the uninterrupted run")
	}
}
