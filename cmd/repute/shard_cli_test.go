package main

// End-to-end tests of the index artifact workflow: `index build` with and
// without sharding, `index info`, corruption detection at load time, and
// the acceptance property that mapping against a sharded artifact, a
// whole-reference artifact and an in-memory rebuild (-ref) all emit
// byte-identical SAM.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fastx"
	"repro/internal/sam"
)

// buildShardedIndex builds a 3-shard artifact for the shared test
// reference and returns its path.
func buildShardedIndex(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "sharded.ridx")
	out, err := runRepute(t, nil, "index", "build", "-ref", refPath, "-out", path,
		"-shards", "3", "-overlap", "256")
	if err != nil {
		t.Fatalf("index build -shards 3: %v\n%s", err, out)
	}
	return path
}

// TestShardedArtifactMatchesWholeAndRef: the same reads mapped against
// (a) the whole-reference artifact, (b) a 3-shard artifact and (c) an
// in-memory rebuild from FASTA must produce byte-identical SAM, with and
// without streaming, including CIGAR recovery.
func TestShardedArtifactMatchesWholeAndRef(t *testing.T) {
	dir := t.TempDir()
	sharded := buildShardedIndex(t, dir)

	whole := filepath.Join(dir, "whole.sam")
	if out, err := runRepute(t, nil, "map", "-index", indexPath, "-reads", readsPath,
		"-cigar", "-out", whole); err != nil {
		t.Fatalf("whole-index map: %v\n%s", err, out)
	}
	shardSam := filepath.Join(dir, "shard.sam")
	if out, err := runRepute(t, nil, "map", "-index", sharded, "-reads", readsPath,
		"-cigar", "-out", shardSam); err != nil {
		t.Fatalf("sharded map: %v\n%s", err, out)
	}
	refSam := filepath.Join(dir, "ref.sam")
	if out, err := runRepute(t, nil, "map", "-ref", refPath, "-reads", readsPath,
		"-cigar", "-out", refSam); err != nil {
		t.Fatalf("-ref rebuild map: %v\n%s", err, out)
	}
	wholeB := readFile(t, whole)
	if !bytes.Equal(wholeB, readFile(t, shardSam)) {
		t.Error("sharded SAM differs from whole-index SAM")
	}
	if !bytes.Equal(wholeB, readFile(t, refSam)) {
		t.Error("-ref rebuild SAM differs from whole-index SAM")
	}

	streamSam := filepath.Join(dir, "stream.sam")
	if out, err := runRepute(t, nil, "map", "-index", sharded, "-reads", readsPath,
		"-cigar", "-batch", "7", "-out", streamSam); err != nil {
		t.Fatalf("streamed sharded map: %v\n%s", err, out)
	}
	if !bytes.Equal(wholeB, readFile(t, streamSam)) {
		t.Error("streamed sharded SAM differs from whole-index SAM")
	}
}

// TestShardedKillAndResume: kill/resume bit-identity holds for sharded
// artifacts too — the checkpoint fingerprint comes from the container
// digest instead of re-hashing the index.
func TestShardedKillAndResume(t *testing.T) {
	dir := t.TempDir()
	sharded := buildShardedIndex(t, dir)
	args := func(out, ckpt string, extra ...string) []string {
		return append([]string{"map", "-index", sharded, "-reads", readsPath,
			"-batch", "7", "-out", out, "-checkpoint", ckpt}, extra...)
	}
	baseline := filepath.Join(dir, "baseline.sam")
	if out, err := runRepute(t, nil, args(baseline, filepath.Join(dir, "b.ckpt"))...); err != nil {
		t.Fatalf("baseline: %v\n%s", err, out)
	}
	sam := filepath.Join(dir, "killed.sam")
	ckpt := filepath.Join(dir, "killed.ckpt")
	out, err := runRepute(t, []string{"REPUTE_KILL_AFTER_BATCH=2"}, args(sam, ckpt)...)
	if err == nil {
		t.Fatalf("kill hook did not fire\n%s", out)
	}
	if out, err := runRepute(t, nil, args(sam, ckpt, "-resume")...); err != nil {
		t.Fatalf("resume: %v\n%s", err, out)
	}
	if !bytes.Equal(readFile(t, sam), readFile(t, baseline)) {
		t.Error("resumed sharded SAM differs from uninterrupted run")
	}
}

// TestIndexInfo: the summary prints the shard table, section checksums
// and the container digest without loading the payloads.
func TestIndexInfo(t *testing.T) {
	dir := t.TempDir()
	sharded := buildShardedIndex(t, dir)
	out, err := runRepute(t, nil, "index", "info", "-index", sharded)
	if err != nil {
		t.Fatalf("index info: %v\n%s", err, out)
	}
	for _, want := range []string{
		"index container v1",
		"shards:    3",
		"shard 2: owns",
		"fm-index shard",
		"digest:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("info output lacks %q:\n%s", want, out)
		}
	}
	// The positional form works too.
	if out2, err := runRepute(t, nil, "index", "info", sharded); err != nil || out2 != out {
		t.Errorf("positional form differs: %v\n%s", err, out2)
	}
}

// TestCorruptIndexRejected flips single bytes across the artifact and
// asserts map refuses each copy loudly instead of mapping against
// corrupted data.
func TestCorruptIndexRejected(t *testing.T) {
	dir := t.TempDir()
	blob, err := os.ReadFile(indexPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []int{len(blob) / 4, len(blob) / 2, len(blob) - 10} {
		corrupt := filepath.Join(dir, fmt.Sprintf("corrupt-%d.ridx", at))
		mut := append([]byte(nil), blob...)
		mut[at] ^= 0x40
		if err := os.WriteFile(corrupt, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := runRepute(t, nil, "map", "-index", corrupt, "-reads", readsPath,
			"-out", filepath.Join(dir, "never.sam"))
		if err == nil {
			t.Fatalf("byte %d flipped but map succeeded", at)
		}
		if !strings.Contains(out, "corrupt") && !strings.Contains(out, "invalid index container") {
			t.Errorf("byte %d: error does not name the corruption:\n%s", at, out)
		}
	}
	// Truncation is also rejected.
	trunc := filepath.Join(dir, "trunc.ridx")
	if err := os.WriteFile(trunc, blob[:len(blob)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := runRepute(t, nil, "map", "-index", trunc, "-reads", readsPath,
		"-out", filepath.Join(dir, "never.sam")); err == nil {
		t.Fatalf("truncated index accepted\n%s", out)
	}
}

// TestShardedRejectsSplit: read-split shares contradict shard dispatch
// and must be refused up front.
func TestShardedRejectsSplit(t *testing.T) {
	dir := t.TempDir()
	sharded := buildShardedIndex(t, dir)
	out, err := runRepute(t, nil, "map", "-index", sharded, "-reads", readsPath,
		"-platform", "system1", "-split", "0.5,0.3,0.2",
		"-out", filepath.Join(dir, "never.sam"))
	if err == nil {
		t.Fatalf("-split accepted for a sharded artifact\n%s", out)
	}
	if !strings.Contains(out, "-split") {
		t.Errorf("error does not mention -split:\n%s", out)
	}
}

// TestMapRequiresOneIndexSource: -index and -ref are mutually exclusive
// and one is required; building an index takes the build subcommand.
func TestMapRequiresOneIndexSource(t *testing.T) {
	for _, args := range [][]string{
		{"map", "-reads", readsPath},                                                 // no index source
		{"map", "-index", indexPath, "-ref", refPath, "-reads", readsPath},           // both
		{"index", "-ref", refPath, "-out", filepath.Join(t.TempDir(), "never.ridx")}, // no subcommand
	} {
		if out, err := runRepute(t, nil, args...); err == nil {
			t.Errorf("%v succeeded\n%s", args, out)
		}
	}
}

// TestMapRejectsUnusableFlags: option values that would silently lose
// reads or output are refused before any read is mapped — a -split share
// that is negative or not finite (NaN used to leave half the read range
// unassigned), and -lenient in paired mode (a record skipped in one mate
// file would put the mates out of step). -cigar in paired mode, refused
// while it wrote * in every record, now recovers each mate's CIGAR.
func TestMapRejectsUnusableFlags(t *testing.T) {
	dir := t.TempDir()
	paired := filepath.Join(dir, "paired-cigar.sam")
	if out, err := runRepute(t, nil, "map", "-index", indexPath, "-reads", mates1Path,
		"-reads2", mates2Path, "-cigar", "-out", paired); err != nil {
		t.Fatalf("paired -cigar: %v\n%s", err, out)
	}
	proper := 0
	for _, line := range strings.Split(string(readFile(t, paired)), "\n") {
		if f := strings.Split(line, "\t"); len(f) > 5 && !strings.HasPrefix(line, "@") {
			flag, err := strconv.Atoi(f[1])
			if err != nil {
				t.Fatal(err)
			}
			if flag&sam.FlagProperPair != 0 {
				proper++
				if f[5] == "*" {
					t.Errorf("proper-pair record without a CIGAR: %s", line)
				}
			}
		}
	}
	if proper == 0 {
		t.Error("paired -cigar run wrote no proper-pair record")
	}

	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-platform", "system1", "-split", "NaN,1,1"}, "bad split entry"},
		{[]string{"-platform", "system1", "-split", "-1,2,0"}, "bad split entry"},
		{[]string{"-platform", "system1", "-split", "1,+Inf,1"}, "bad split entry"},
		{[]string{"-reads2", readsPath, "-lenient"}, "lenient"},
	} {
		out, err := runRepute(t, nil, append([]string{"map", "-index", indexPath, "-reads", readsPath,
			"-out", filepath.Join(dir, "never.sam")}, tc.args...)...)
		if err == nil {
			t.Errorf("map %v succeeded\n%s", tc.args, out)
		} else if !strings.Contains(out, tc.want) {
			t.Errorf("map %v: error does not mention %q:\n%s", tc.args, tc.want, out)
		}
	}
}

// TestIndexBuildDigestGolden pins the bytes `index build` writes for a
// committed FASTA fixture — several contigs with description lines,
// lowercase runs, N runs and IUPAC codes, lines wrapped at different
// widths, CRLF endings — whole and as 3 shards. Any change to how the
// reference is parsed, how ambiguous bases are substituted or how the
// artifact is laid out moves these digests.
func TestIndexBuildDigestGolden(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args   []string
		sha256 string
	}{
		{nil, "350799e5eb3bb532cf9aee86cd0625a59cc366182201936eba0cc3f50324f457"},
		{[]string{"-shards", "3", "-overlap", "256"}, "bf22e788823a5d133d2e3a4be72426b9f20545517f42cbdedb5f7d4a9ffb4d5c"},
	} {
		path := filepath.Join(dir, "golden.ridx")
		args := append([]string{"index", "build", "-ref", filepath.Join("testdata", "contigs.fa"), "-out", path}, tc.args...)
		if out, err := runRepute(t, nil, args...); err != nil {
			t.Fatalf("index build %v: %v\n%s", tc.args, err, out)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(readFile(t, path))); got != tc.sha256 {
			t.Errorf("index build %v: artifact sha256 %s, want %s", tc.args, got, tc.sha256)
		}
	}
}

// TestMalformedReferenceRefused: `index build -ref` and `map -ref` refuse
// an empty FASTA, sequence before the first header and a stray '>'
// inside a sequence line; a parse failure names the file and the line.
func TestMalformedReferenceRefused(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name, body, want string
	}{
		{"empty.fa", "", ": no FASTA records"},
		{"headless.fa", "ACGTACGT\n>chr1\nACGT\n", ": line 1: record 0: " + fastx.ReasonMissingHeader},
		{"stray.fa", ">chr1\nACGT\nAC>GT\n", ": line 3: record 0: " + fastx.ReasonStrayHeader},
	} {
		ref := filepath.Join(dir, tc.name)
		if err := os.WriteFile(ref, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{
			{"index", "build", "-ref", ref, "-out", filepath.Join(dir, "never.ridx")},
			{"map", "-ref", ref, "-reads", readsPath, "-out", filepath.Join(dir, "never.sam")},
		} {
			out, err := runRepute(t, nil, args...)
			if err == nil {
				t.Errorf("%s %s: accepted\n%s", args[0], tc.name, out)
			} else if !strings.Contains(out, ref+tc.want) {
				t.Errorf("%s %s: error lacks %q:\n%s", args[0], tc.name, ref+tc.want, out)
			}
		}
	}
}
