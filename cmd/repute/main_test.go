package main

// End-to-end tests of the streaming/checkpointed CLI: they build the
// real binary, generate a synthetic workload, and then kill, resume,
// corrupt and signal actual processes — the failure modes ISSUE 5's
// robustness contract is about. The core property asserted throughout:
// however a run is interrupted, the resumed SAM output is byte-identical
// to an uninterrupted run.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dna"
	"repro/internal/fastx"
	"repro/internal/simulate"
)

var (
	binPath    string
	refPath    string
	indexPath  string
	readsPath  string
	dirtyPath  string
	mates1Path string
	mates2Path string
)

var update = flag.Bool("update", false, "rewrite testdata/paired.sam from this binary's output")

func TestMain(m *testing.M) {
	os.Exit(testMain(m))
}

func testMain(m *testing.M) int {
	dir, err := os.MkdirTemp("", "repute-cli")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)

	binPath = filepath.Join(dir, "repute")
	if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build: %v\n%s", err, out)
		return 1
	}

	// Synthetic workload: a repetitive reference and 60 reads, some with
	// ambiguous bases so the checkpointed RNG-draw counter does real work.
	ref := simulate.Reference(simulate.Chr21Like(60_000, 11))
	set, err := simulate.Reads(ref, 60, simulate.ERR012100, 12)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	refPath = filepath.Join(dir, "ref.fa")
	rf, err := os.Create(refPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	err = fastx.WriteFasta(rf, []fastx.Record{{Name: "chr21s", Seq: []byte(dna.Decode(ref))}}, 80)
	rf.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	recs := make([]fastx.Record, len(set.Reads))
	for i, r := range set.Reads {
		seq := []byte(dna.Decode(r))
		if i%9 == 0 { // sprinkle ambiguity
			seq[3], seq[10] = 'N', 'N'
		}
		recs[i] = fastx.Record{
			Name: fmt.Sprintf("read%03d", i),
			Seq:  seq,
			Qual: bytes.Repeat([]byte{'I'}, len(seq)),
		}
	}
	readsPath = filepath.Join(dir, "reads.fq")
	qf, err := os.Create(readsPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	err = fastx.WriteFastq(qf, recs)
	qf.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	// mates1.fq/mates2.fq: 30 FR fragments over the same reference, named
	// fragNN/1 and fragNN/2, with ambiguous bases in both files so both
	// mates' codecs draw.
	ps, err := simulate.PairedReads(ref, 30, simulate.ERR012100, 300, 30, 5)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	mates1Path, mates2Path = filepath.Join(dir, "mates1.fq"), filepath.Join(dir, "mates2.fq")
	for m, reads := range [][][]byte{ps.Reads1, ps.Reads2} {
		var fq bytes.Buffer
		for i, r := range reads {
			seq := []byte(dna.Decode(r))
			if i%4 == m {
				seq[5], seq[20] = 'N', 'N'
			}
			fmt.Fprintf(&fq, "@frag%02d/%d\n%s\n+\n%s\n", i, m+1, seq, strings.Repeat("I", len(seq)))
		}
		if err := os.WriteFile([]string{mates1Path, mates2Path}[m], fq.Bytes(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	// dirty.fq: the same reads with a truncated quality line, a junk
	// line, and an unmappably short record spliced in.
	clean, err := os.ReadFile(readsPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	lines := strings.SplitAfter(string(clean), "\n")
	var dirty strings.Builder
	for i, l := range lines {
		switch i {
		case 11: // quality line of record 3, truncated
			dirty.WriteString(strings.TrimRight(l, "\n")[:5] + "\n")
			continue
		case 20:
			dirty.WriteString("this is not a fastq line\n")
		case 32:
			dirty.WriteString("@tiny\nACG\n+\nIII\n")
		}
		dirty.WriteString(l)
	}
	dirtyPath = filepath.Join(dir, "dirty.fq")
	if err := os.WriteFile(dirtyPath, []byte(dirty.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	indexPath = filepath.Join(dir, "ref.rix")
	if out, err := exec.Command(binPath, "index", "-ref", refPath, "-out", indexPath).CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "index: %v\n%s", err, out)
		return 1
	}

	return m.Run()
}

// cleanEnv is the inherited environment minus every REPUTE_* hook, so a
// chaos CI environment doesn't leak into runs that set their own.
func cleanEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "REPUTE_") {
			continue
		}
		env = append(env, kv)
	}
	return env
}

// runRepute runs the binary with extra environment entries, returning
// combined stderr and the exit error (nil on success).
func runRepute(t *testing.T, extraEnv []string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(binPath, args...)
	cmd.Env = append(cleanEnv(), extraEnv...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	cmd.Stdout = &stderr
	err := cmd.Run()
	return stderr.String(), err
}

func mapArgs(out string, extra ...string) []string {
	return append([]string{"map", "-index", indexPath, "-reads", readsPath,
		"-batch", "7", "-out", out}, extra...)
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStreamedMatchesInMemory is the runner-parity check: every form of
// `repute map` is the same stream runner, so the default whole-input
// batch (-batch 0, to a file and to stdout), the default batch under
// GOMAXPROCS=1 (every kernel on the serial path), -batch 7, and -batch 7
// -checkpoint killed and resumed (with and without an armed fault plan)
// all write byte-identical SAM, for a whole-reference and a 4-shard
// artifact alike. The single-end row checks every run against the first;
// the paired row checks them against testdata/paired.sam, recorded when
// paired mode still mapped both files whole outside the runner.
func TestStreamedMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	sharded := filepath.Join(dir, "sharded4.ridx")
	if out, err := runRepute(t, nil, "index", "build", "-ref", refPath, "-out", sharded,
		"-shards", "4", "-overlap", "256"); err != nil {
		t.Fatalf("index build -shards 4: %v\n%s", err, out)
	}
	for _, row := range []struct {
		name   string
		reads  []string
		golden string // "" compares with the row's first run
		kill   string // a batch boundary inside the -batch 7 run
	}{
		{"single", []string{"-reads", readsPath}, "", "4"},
		// The narrow insert band leaves some fragments discordant.
		{"paired", []string{"-reads", mates1Path, "-reads2", mates2Path, "-max-insert", "330"}, filepath.Join("testdata", "paired.sam"), "2"},
	} {
		var want []byte
		if row.golden != "" && !*update {
			want = readFile(t, row.golden)
		}
		for _, ix := range []struct{ name, path string }{{"whole", indexPath}, {"4shards", sharded}} {
			name := row.name + "-" + ix.name
			base := append([]string{"map", "-index", ix.path}, row.reads...)
			whole := filepath.Join(dir, name+"-whole.sam")
			if out, err := runRepute(t, nil, append(base, "-out", whole)...); err != nil {
				t.Fatalf("%s default batch: %v\n%s", name, err, out)
			}
			if want == nil {
				want = readFile(t, whole)
				if row.golden != "" {
					if err := os.WriteFile(row.golden, want, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			if !bytes.Equal(want, readFile(t, whole)) {
				t.Errorf("%s: default-batch SAM differs from the reference SAM", name)
			}

			// No -out: the same bytes on stdout, the summary on stderr.
			cmd := exec.Command(binPath, base...)
			cmd.Env = cleanEnv()
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s stdout run: %v\n%s", name, err, stderr.String())
			}
			if !bytes.Equal(want, stdout.Bytes()) {
				t.Errorf("%s: stdout SAM differs from the reference SAM", name)
			}
			if !strings.Contains(stderr.String(), "in 1 batch(es)") {
				t.Errorf("%s: default run is not one whole-input batch:\n%s", name, stderr.String())
			}

			// One worker leaves the work-group scheduler nothing to
			// parallelise: the serial path must write the same bytes.
			serial := filepath.Join(dir, name+"-serial.sam")
			if out, err := runRepute(t, []string{"GOMAXPROCS=1"}, append(base, "-out", serial)...); err != nil {
				t.Fatalf("%s GOMAXPROCS=1: %v\n%s", name, err, out)
			}
			if !bytes.Equal(want, readFile(t, serial)) {
				t.Errorf("%s: GOMAXPROCS=1 (serial) SAM differs from the reference SAM", name)
			}

			batched := filepath.Join(dir, name+"-b7.sam")
			if out, err := runRepute(t, nil, append(base, "-batch", "7", "-out", batched)...); err != nil {
				t.Fatalf("%s -batch 7: %v\n%s", name, err, out)
			}
			if !bytes.Equal(want, readFile(t, batched)) {
				t.Errorf("%s: -batch 7 SAM differs from the reference SAM", name)
			}

			for _, env := range [][]string{nil, {"REPUTE_CL_FAULTS=enq2=oor,alloc3=alloc,throttle4-6=0.5"}} {
				resumed := filepath.Join(dir, name+"-resumed.sam")
				ckpt := filepath.Join(dir, name+".ckpt")
				ckptArgs := append(base, "-batch", "7", "-out", resumed, "-checkpoint", ckpt)
				if out, err := runRepute(t, append(env, "REPUTE_KILL_AFTER_BATCH="+row.kill), ckptArgs...); err == nil {
					t.Fatalf("%s %v: process survived its kill hook\n%s", name, env, out)
				}
				if out, err := runRepute(t, env, append(ckptArgs, "-resume")...); err != nil {
					t.Fatalf("%s %v resume: %v\n%s", name, env, err, out)
				}
				if !bytes.Equal(want, readFile(t, resumed)) {
					t.Errorf("%s %v: killed-and-resumed SAM differs from the reference SAM", name, env)
				}
			}
		}
	}

	// One summary for every run: per-device busy lines in name order.
	out, err := runRepute(t, nil, "map", "-index", indexPath, "-reads", readsPath,
		"-platform", "system1", "-split", "1,1,1", "-out", filepath.Join(dir, "split.sam"))
	if err != nil {
		t.Fatalf("3-device map: %v\n%s", err, out)
	}
	var busy []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasSuffix(line, "s busy") {
			busy = append(busy, line)
		}
	}
	if len(busy) != 3 || !sort.StringsAreSorted(busy) {
		t.Errorf("want 3 sorted per-device busy lines, got %q", busy)
	}
}

// TestPairedMatesMustMatch: mates pair by name, not by position. A mate-2
// file with two records swapped, or one record short, is refused with an
// error naming the mate-2 file — the swap used to map, exit 0 and write
// mate 2's alignments under the wrong fragment name.
func TestPairedMatesMustMatch(t *testing.T) {
	dir := t.TempDir()
	lines := strings.SplitAfter(string(readFile(t, mates2Path)), "\n")
	lines = lines[:len(lines)-1] // the empty tail after the last newline
	for _, tc := range []struct {
		name, want string
		lines      []string
	}{
		{"swapped", "is not the mate of", append(append(append([]string{}, lines[4:8]...), lines[:4]...), lines[8:]...)},
		{"short", "ends before", lines[:len(lines)-4]},
	} {
		mates2 := filepath.Join(dir, tc.name+".fq")
		if err := os.WriteFile(mates2, []byte(strings.Join(tc.lines, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := runRepute(t, nil, "map", "-index", indexPath, "-reads", mates1Path,
			"-reads2", mates2, "-out", filepath.Join(dir, tc.name+".sam"))
		if err == nil {
			t.Fatalf("%s mate-2 file accepted\n%s", tc.name, out)
		}
		if !strings.Contains(out, tc.want) || !strings.Contains(out, mates2) {
			t.Errorf("%s: error does not say %q of %s:\n%s", tc.name, tc.want, mates2, out)
		}
	}
}

// TestStreamedChaosHonoursDevice: a device=K fault directive targets only
// the Kth pipeline device on every path. Losing device 2 of 3 must
// recover by failover and leave the SAM untouched — batched runs used to
// arm the plan on every device and lose them all.
func TestStreamedChaosHonoursDevice(t *testing.T) {
	dir := t.TempDir()
	args := func(out string) []string {
		return mapArgs(out, "-platform", "system1", "-split", "1,1,1")
	}
	clean := filepath.Join(dir, "clean.sam")
	if out, err := runRepute(t, nil, args(clean)...); err != nil {
		t.Fatalf("fault-free map: %v\n%s", err, out)
	}
	chaos := filepath.Join(dir, "chaos.sam")
	if out, err := runRepute(t, []string{"REPUTE_CL_FAULTS=device=2,enq1=lost"}, args(chaos)...); err != nil {
		t.Fatalf("device=2 chaos map: %v\n%s", err, out)
	}
	if !bytes.Equal(readFile(t, clean), readFile(t, chaos)) {
		t.Error("SAM under a lost device 2 differs from the fault-free SAM")
	}
}

// TestChaosRejectsDeviceBeyondGroup: a device=K directive beyond the
// run's device group is refused with a nonzero exit naming it — not a
// chaos run that maps every read and injects nothing.
func TestChaosRejectsDeviceBeyondGroup(t *testing.T) {
	sam := filepath.Join(t.TempDir(), "a.sam")
	out, err := runRepute(t, []string{"REPUTE_CL_FAULTS=device=9,enq1=lost"},
		"map", "-index", indexPath, "-reads", readsPath, "-out", sam)
	if err == nil {
		t.Fatalf("device=9 on a 1-device run exited 0:\n%s", out)
	}
	if !strings.Contains(out, "device=9") {
		t.Errorf("error does not name device=9:\n%s", out)
	}
}

// TestKillAndResume kills a checkpointed run after every possible batch
// boundary and checks the resumed output is bit-identical to an
// uninterrupted run. 60 reads at batch 7 is 9 batches.
func TestKillAndResume(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.sam")
	if out, err := runRepute(t, nil, mapArgs(baseline)...); err != nil {
		t.Fatalf("baseline: %v\n%s", err, out)
	}
	for kill := 1; kill <= 9; kill++ {
		sam := filepath.Join(dir, fmt.Sprintf("k%d.sam", kill))
		ckpt := filepath.Join(dir, fmt.Sprintf("k%d.ckpt", kill))
		out, err := runRepute(t, []string{fmt.Sprintf("REPUTE_KILL_AFTER_BATCH=%d", kill)},
			mapArgs(sam, "-checkpoint", ckpt)...)
		if kill <= 8 && err == nil {
			t.Fatalf("kill=%d: process survived its kill hook\n%s", kill, out)
		}
		if kill == 9 {
			// The hook fires after the final batch's checkpoint; the run
			// is complete either way once resumed.
			if err == nil {
				continue
			}
		}
		if out, err := runRepute(t, nil, mapArgs(sam, "-checkpoint", ckpt, "-resume")...); err != nil {
			t.Fatalf("kill=%d resume: %v\n%s", kill, err, out)
		}
		if !bytes.Equal(readFile(t, sam), readFile(t, baseline)) {
			t.Errorf("kill=%d: resumed SAM differs from uninterrupted run", kill)
		}
	}
}

// TestKillAndResumeUnderFaults repeats the kill/resume bit-identity
// check under an injected fault plan, including a double kill — the
// checkpointed fault ordinals must keep the injection schedule aligned.
func TestKillAndResumeUnderFaults(t *testing.T) {
	faults := "REPUTE_CL_FAULTS=enq2=oor,alloc40=alloc,throttle4-6=0.5"
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.sam")
	if out, err := runRepute(t, []string{faults}, mapArgs(baseline)...); err != nil {
		t.Fatalf("chaos baseline: %v\n%s", err, out)
	}
	for _, kills := range [][]int{{2}, {5}, {2, 2}} {
		name := fmt.Sprint(kills)
		sam := filepath.Join(dir, "f"+name+".sam")
		ckpt := filepath.Join(dir, "f"+name+".ckpt")
		args := mapArgs(sam, "-checkpoint", ckpt)
		for i, kill := range kills {
			resumeArgs := args
			if i > 0 {
				resumeArgs = append(args, "-resume")
			}
			out, err := runRepute(t, []string{faults, fmt.Sprintf("REPUTE_KILL_AFTER_BATCH=%d", kill)},
				resumeArgs...)
			if err == nil {
				t.Fatalf("kills=%s step %d: process survived its kill hook\n%s", name, i, out)
			}
		}
		if out, err := runRepute(t, []string{faults}, append(args, "-resume")...); err != nil {
			t.Fatalf("kills=%s final resume: %v\n%s", name, err, out)
		}
		if !bytes.Equal(readFile(t, sam), readFile(t, baseline)) {
			t.Errorf("kills=%s: resumed SAM differs from uninterrupted chaos run", name)
		}
	}
}

// TestStaleCheckpointRejected: resuming with different mapping options
// must fail with the fingerprint mismatch, not silently mix outputs.
func TestStaleCheckpointRejected(t *testing.T) {
	dir := t.TempDir()
	sam := filepath.Join(dir, "run.sam")
	ckpt := filepath.Join(dir, "run.ckpt")
	out, err := runRepute(t, []string{"REPUTE_KILL_AFTER_BATCH=2"},
		mapArgs(sam, "-checkpoint", ckpt)...)
	if err == nil {
		t.Fatalf("kill hook did not fire\n%s", out)
	}
	out, err = runRepute(t, nil, mapArgs(sam, "-checkpoint", ckpt, "-resume", "-e", "3")...)
	if err == nil {
		t.Fatal("resume with different -e must fail")
	}
	if !strings.Contains(out, "fingerprint mismatch") {
		t.Errorf("want fingerprint mismatch error, got:\n%s", out)
	}
	// The original options still resume fine.
	if out, err := runRepute(t, nil, mapArgs(sam, "-checkpoint", ckpt, "-resume")...); err != nil {
		t.Fatalf("legitimate resume: %v\n%s", err, out)
	}
}

// TestLenientDegradation: strict mode fails on a corrupted FASTQ with a
// typed position; lenient mode completes and reports the skip tallies.
func TestLenientDegradation(t *testing.T) {
	dir := t.TempDir()
	sam := filepath.Join(dir, "dirty.sam")
	out, err := runRepute(t, nil, "map", "-index", indexPath, "-reads", dirtyPath,
		"-batch", "7", "-out", sam)
	if err == nil {
		t.Fatal("strict map of corrupted FASTQ must fail")
	}
	if !strings.Contains(out, "length-mismatch") || !strings.Contains(out, "dirty.fq") {
		t.Errorf("strict error lacks typed position:\n%s", out)
	}
	out, err = runRepute(t, nil, "map", "-index", indexPath, "-reads", dirtyPath,
		"-batch", "7", "-lenient", "-out", sam)
	if err != nil {
		t.Fatalf("lenient map: %v\n%s", err, out)
	}
	if !strings.Contains(out, "skipped 3 malformed/unmappable record(s)") {
		t.Errorf("lenient summary lacks skip tally:\n%s", out)
	}
	for _, reason := range []string{"length-mismatch=1", "missing-header=1", "short-read=1"} {
		if !strings.Contains(out, reason) {
			t.Errorf("lenient summary lacks %q:\n%s", reason, out)
		}
	}
}

// TestSigtermFlushesCheckpoint sends a real SIGTERM mid-run and checks
// the process exits nonzero with a final checkpoint and a partial SAM
// that resume completes bit-identically.
func TestSigtermFlushesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.sam")
	if out, err := runRepute(t, nil, mapArgs(baseline)...); err != nil {
		t.Fatalf("baseline: %v\n%s", err, out)
	}

	sam := filepath.Join(dir, "sig.sam")
	ckpt := filepath.Join(dir, "sig.ckpt")
	cmd := exec.Command(binPath, mapArgs(sam, "-checkpoint", ckpt)...)
	cmd.Env = append(cleanEnv(), "REPUTE_STREAM_BATCH_DELAY_MS=150")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait for the first checkpoint so the signal lands mid-stream.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("no checkpoint appeared within 10s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if err == nil {
		t.Fatalf("SIGTERM run exited zero\n%s", stderr.String())
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("want graceful exit code 1, got %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Errorf("stderr lacks interruption notice:\n%s", stderr.String())
	}
	st, err := checkpoint.Load(ckpt)
	if err != nil {
		t.Fatalf("final checkpoint unreadable: %v", err)
	}
	if st.Batches < 1 || st.Reads < 7 {
		t.Errorf("checkpoint recorded no progress: %+v", st)
	}
	// The flushed partial SAM must be exactly the checkpointed prefix of
	// the baseline — valid and resumable.
	if got, want := readFile(t, sam), readFile(t, baseline); !bytes.Equal(got, want[:st.SAMBytes]) {
		t.Errorf("partial SAM is not a clean prefix of the baseline (%d bytes vs prefix %d)",
			len(got), st.SAMBytes)
	}
	if out, err := runRepute(t, nil, mapArgs(sam, "-checkpoint", ckpt, "-resume")...); err != nil {
		t.Fatalf("resume after SIGTERM: %v\n%s", err, out)
	}
	if !bytes.Equal(readFile(t, sam), readFile(t, baseline)) {
		t.Error("SAM after SIGTERM + resume differs from uninterrupted run")
	}
}
