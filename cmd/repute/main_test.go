package main

// The package's tests build the real binary once, over a synthetic
// 60 kbp reference with single-end and paired reads, and run it as a
// process. equiv_test.go holds every form of `repute map` and `repute
// serve` to one SAM; the tests here refuse malformed input by name.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dna"
	"repro/internal/fastx"
	"repro/internal/simulate"
)

var (
	binPath    string
	refPath    string
	indexPath  string
	shardsPath string
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
	if out, err := exec.Command(binPath, "index", "build", "-ref", refPath, "-out", indexPath).CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "index: %v\n%s", err, out)
		return 1
	}
	shardsPath = filepath.Join(dir, "shards3.ridx")
	if out, err := exec.Command(binPath, "index", "build", "-ref", refPath, "-out", shardsPath,
		"-shards", "3", "-overlap", "256").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "index -shards 3: %v\n%s", err, out)
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

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
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

// TestPrefilterUnknownValue: a bad -prefilter name fails up front.
func TestPrefilterUnknownValue(t *testing.T) {
	out, err := runRepute(t, nil, "map", "-index", indexPath, "-reads", readsPath,
		"-prefilter", "grim", "-out", filepath.Join(t.TempDir(), "x.sam"))
	if err == nil {
		t.Fatal("unknown -prefilter accepted")
	}
	if !strings.Contains(out, "unknown prefilter") {
		t.Errorf("want unknown prefilter error, got:\n%s", out)
	}
}
