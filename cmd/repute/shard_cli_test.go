package main

// End-to-end tests of the index artifact workflow: `index build` with and
// without sharding, `index info`, corruption detection at load time, and
// the acceptance property that mapping against a sharded artifact, a
// whole-reference artifact and an in-memory rebuild (-ref) all emit
// byte-identical SAM.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
// and one is required.
func TestMapRequiresOneIndexSource(t *testing.T) {
	if out, err := runRepute(t, nil, "map", "-reads", readsPath); err == nil {
		t.Fatalf("map with no index source succeeded\n%s", out)
	}
	if out, err := runRepute(t, nil, "map", "-index", indexPath, "-ref", refPath,
		"-reads", readsPath); err == nil {
		t.Fatalf("map with both -index and -ref succeeded\n%s", out)
	}
}

// TestMapRejectsUnusableFlags: option values that would silently lose
// reads or output are refused before any read is mapped — a -split share
// that is negative or not finite (NaN used to leave half the read range
// unassigned), and -cigar in paired mode (which wrote * in every record).
func TestMapRejectsUnusableFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-platform", "system1", "-split", "NaN,1,1"}, "bad split entry"},
		{[]string{"-platform", "system1", "-split", "-1,2,0"}, "bad split entry"},
		{[]string{"-platform", "system1", "-split", "1,+Inf,1"}, "bad split entry"},
		{[]string{"-reads2", readsPath, "-cigar"}, "-cigar"},
	} {
		out, err := runRepute(t, nil, append([]string{"map", "-index", indexPath, "-reads", readsPath,
			"-out", filepath.Join(t.TempDir(), "never.sam")}, tc.args...)...)
		if err == nil {
			t.Errorf("map %v succeeded\n%s", tc.args, out)
		} else if !strings.Contains(out, tc.want) {
			t.Errorf("map %v: error does not mention %q:\n%s", tc.args, tc.want, out)
		}
	}
}
