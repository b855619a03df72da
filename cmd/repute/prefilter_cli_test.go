package main

// CLI-level accuracy-regression gate for the pre-alignment filter:
// -prefilter gatekeeper must produce byte-identical SAM to -prefilter
// off across the whole-input and batched runs, an armed chaos plan,
// paired mode, and kill/resume — and a checkpoint taken under one filter
// configuration must refuse to resume under another.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dna"
	"repro/internal/simulate"
)

// TestPrefilterCLIEquivalence: filtered and unfiltered runs emit the
// same SAM bytes, whole-input and batched, with and without chaos, single-
// and paired-end.
func TestPrefilterCLIEquivalence(t *testing.T) {
	dir := t.TempDir()
	off := filepath.Join(dir, "off.sam")
	on := filepath.Join(dir, "on.sam")
	if out, err := runRepute(t, nil, "map", "-index", indexPath, "-reads", readsPath, "-out", off); err != nil {
		t.Fatalf("unfiltered map: %v\n%s", err, out)
	}
	if out, err := runRepute(t, nil, "map", "-index", indexPath, "-reads", readsPath,
		"-prefilter", "gatekeeper", "-out", on); err != nil {
		t.Fatalf("filtered map: %v\n%s", err, out)
	}
	if !bytes.Equal(readFile(t, off), readFile(t, on)) {
		t.Error("filtered SAM differs from unfiltered SAM (whole-input batch)")
	}

	onStream := filepath.Join(dir, "on-stream.sam")
	if out, err := runRepute(t, nil, mapArgs(onStream, "-prefilter", "gatekeeper")...); err != nil {
		t.Fatalf("filtered streamed map: %v\n%s", err, out)
	}
	if !bytes.Equal(readFile(t, off), readFile(t, onStream)) {
		t.Error("filtered streamed SAM differs from unfiltered SAM")
	}

	// Chaos: recovery replays of the filtered kernel must not change what
	// anything maps to.
	faults := "REPUTE_CL_FAULTS=enq2=oor,alloc40=alloc,throttle4-6=0.5"
	onChaos := filepath.Join(dir, "on-chaos.sam")
	if out, err := runRepute(t, []string{faults}, mapArgs(onChaos, "-prefilter", "gatekeeper")...); err != nil {
		t.Fatalf("filtered chaos map: %v\n%s", err, out)
	}
	if !bytes.Equal(readFile(t, off), readFile(t, onChaos)) {
		t.Error("filtered chaos SAM differs from unfiltered SAM")
	}

	// Paired mode takes the same options: the filter must run (its
	// rejection counter appears) inside the one map kernel and change no
	// record.
	ref := simulate.Reference(simulate.Chr21Like(60_000, 11)) // TestMain's reference
	ps, err := simulate.PairedReads(ref, 20, simulate.ERR012100, 300, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	mates := [2]string{filepath.Join(dir, "m1.fq"), filepath.Join(dir, "m2.fq")}
	for m, reads := range [][][]byte{ps.Reads1, ps.Reads2} {
		var fq bytes.Buffer
		for i, r := range reads {
			fmt.Fprintf(&fq, "@frag%02d/%d\n%s\n+\n%s\n", i, m+1, dna.Decode(r), strings.Repeat("I", len(r)))
		}
		if err := os.WriteFile(mates[m], fq.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	paired := func(prefilter string) (sam []byte, metrics string) {
		out := filepath.Join(dir, "paired-"+prefilter+".sam")
		prom := filepath.Join(dir, "paired-"+prefilter+".prom")
		if msg, err := runRepute(t, nil, "map", "-index", indexPath, "-reads", mates[0], "-reads2", mates[1],
			"-prefilter", prefilter, "-metrics-out", prom, "-out", out); err != nil {
			t.Fatalf("paired map -prefilter %s: %v\n%s", prefilter, err, msg)
		}
		return readFile(t, out), string(readFile(t, prom))
	}
	offSAM, offMetrics := paired("off")
	onSAM, onMetrics := paired("gatekeeper")
	if !bytes.Equal(offSAM, onSAM) {
		t.Error("filtered paired SAM differs from unfiltered paired SAM")
	}
	for prefilter, metrics := range map[string]string{"off": offMetrics, "gatekeeper": onMetrics} {
		if !strings.Contains(metrics, "REPUTE-map") || strings.Contains(metrics, "REPUTE-prefilter") {
			t.Errorf("paired -prefilter %s should launch only the map kernel:\n%s", prefilter, metrics)
		}
	}
	if strings.Contains(offMetrics, "prefilter_rejected_total") {
		t.Errorf("unfiltered paired run reports filter work:\n%s", offMetrics)
	}
	if !strings.Contains(onMetrics, "prefilter_rejected_total") {
		t.Error("paired -prefilter gatekeeper shows no prefilter_rejected_total (prefilter dropped?)")
	}
}

// TestPrefilterKillAndResume: a checkpointed filtered run killed at a
// batch boundary resumes to the same bytes as an uninterrupted
// unfiltered run.
func TestPrefilterKillAndResume(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.sam")
	if out, err := runRepute(t, nil, mapArgs(baseline)...); err != nil {
		t.Fatalf("baseline: %v\n%s", err, out)
	}
	for _, kill := range []int{2, 5} {
		sam := filepath.Join(dir, fmt.Sprintf("k%d.sam", kill))
		ckpt := filepath.Join(dir, fmt.Sprintf("k%d.ckpt", kill))
		out, err := runRepute(t, []string{fmt.Sprintf("REPUTE_KILL_AFTER_BATCH=%d", kill)},
			mapArgs(sam, "-checkpoint", ckpt, "-prefilter", "gatekeeper")...)
		if err == nil {
			t.Fatalf("kill=%d: process survived its kill hook\n%s", kill, out)
		}
		if out, err := runRepute(t, nil,
			mapArgs(sam, "-checkpoint", ckpt, "-prefilter", "gatekeeper", "-resume")...); err != nil {
			t.Fatalf("kill=%d resume: %v\n%s", kill, err, out)
		}
		if !bytes.Equal(readFile(t, sam), readFile(t, baseline)) {
			t.Errorf("kill=%d: resumed filtered SAM differs from unfiltered baseline", kill)
		}
	}
}

// TestPrefilterCheckpointFingerprint: the filter configuration is part
// of the checkpoint fingerprint, so resuming under a different one must
// be refused.
func TestPrefilterCheckpointFingerprint(t *testing.T) {
	dir := t.TempDir()
	sam := filepath.Join(dir, "run.sam")
	ckpt := filepath.Join(dir, "run.ckpt")
	out, err := runRepute(t, []string{"REPUTE_KILL_AFTER_BATCH=2"},
		mapArgs(sam, "-checkpoint", ckpt, "-prefilter", "gatekeeper")...)
	if err == nil {
		t.Fatalf("kill hook did not fire\n%s", out)
	}
	out, err = runRepute(t, nil, mapArgs(sam, "-checkpoint", ckpt, "-resume")...)
	if err == nil {
		t.Fatal("resume without -prefilter must fail against a filtered checkpoint")
	}
	if !strings.Contains(out, "fingerprint mismatch") {
		t.Errorf("want fingerprint mismatch error, got:\n%s", out)
	}
	if out, err := runRepute(t, nil,
		mapArgs(sam, "-checkpoint", ckpt, "-prefilter", "gatekeeper", "-resume")...); err != nil {
		t.Fatalf("legitimate filtered resume: %v\n%s", err, out)
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
