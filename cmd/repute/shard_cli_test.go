package main

// End-to-end tests of the index artifact workflow and the map flags:
// `index info`, the bytes `index build` writes, and the index sources,
// flag values and references `map` refuses before it maps a read.

import (
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

// TestIndexInfo: the summary prints the shard table, section checksums
// and the container digest without loading the payloads.
func TestIndexInfo(t *testing.T) {
	sharded := shardsPath
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

// TestShardedRejectsSplit: read-split shares contradict shard dispatch
// and must be refused up front.
func TestShardedRejectsSplit(t *testing.T) {
	dir := t.TempDir()
	out, err := runRepute(t, nil, "map", "-index", shardsPath, "-reads", readsPath,
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
