package serve

// The stream runner's closing save: after the last batch the only tally
// that can still move is the lenient skip count, so RunStream flushes and
// saves again only when it has something the disk lacks — a fresh run's
// header and first checkpoint, or skips that came after the last batch.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/genome"
	"repro/internal/mapper"
	"repro/internal/seed"
)

// checkpointedRun is a checkpointed RunStream in dir over its reads.fq
// (written from fastq unless the run resumes), mapped in batches of batch
// reads, whose AfterBatch stats run.ckpt once the batch's save is
// durable. It returns the final state, the last stat taken (nil when no
// batch ran) and the run's SAM and checkpoint paths.
func checkpointedRun(t *testing.T, fx *fixture, dir string, fastq []byte, batch int, lenient, resume bool) (*checkpoint.State, os.FileInfo, string, string) {
	t.Helper()
	reads := filepath.Join(dir, "reads.fq")
	if !resume {
		if err := os.WriteFile(reads, fastq, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	g, err := genome.FromContigs(fx.file.Meta.Contigs)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(fx.file, []*cl.Device{cl.SystemOneCPU()}, core.Config{Name: "REPUTE", Selector: seed.REPUTE{}})
	if err != nil {
		t.Fatal(err)
	}
	run := Stream{
		Pipeline: p, Genome: g, Opt: mapper.Options{MaxErrors: 5, MaxLocations: 100},
		Batch: batch, Lenient: lenient, ReadsPath: reads, ReadsName: "reads.fq",
		SAMPath: filepath.Join(dir, "out.sam"), CkptPath: filepath.Join(dir, "run.ckpt"), Fingerprint: "f",
		Resume: resume,
	}
	var last os.FileInfo
	run.AfterBatch = func(*checkpoint.State) error {
		fi, err := os.Stat(run.CkptPath)
		last = fi
		return err
	}
	st, err := RunStream(context.Background(), run)
	if err != nil {
		t.Fatal(err)
	}
	return st, last, run.SAMPath, run.CkptPath
}

// sameFile reports whether path is still the file fi describes.
func sameFile(t *testing.T, fi os.FileInfo, path string) bool {
	t.Helper()
	now, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return os.SameFile(fi, now)
}

// TestRunStreamClosingSave holds the three cases of the closing save.
func TestRunStreamClosingSave(t *testing.T) {
	fx := newFixture(t, 30_000, 12)

	t.Run("ends on a batch boundary", func(t *testing.T) {
		st, last, _, ckpt := checkpointedRun(t, fx, t.TempDir(), fx.fastq, 4, false, false)
		if st.Batches != 3 || last == nil {
			t.Fatalf("%d batches, want 3", st.Batches)
		}
		if !sameFile(t, last, ckpt) {
			t.Error("run.ckpt was replaced after the last batch, which left nothing new to save")
		}
	})

	t.Run("trailing lenient skips", func(t *testing.T) {
		// Two malformed records after the last good one: a length mismatch
		// and a missing separator, both skipped after the last batch.
		bad := fmt.Sprintf("%s@bad1\nACGT\n+\nII\n@bad2\nACGT\nIIII\n", fx.fastq)
		st, last, _, ckpt := checkpointedRun(t, fx, t.TempDir(), []byte(bad), 4, true, false)
		if st.Batches != 3 || st.Faults.SkippedRecords != 2 {
			t.Fatalf("%d batches, %d skipped, want 3 and 2", st.Batches, st.Faults.SkippedRecords)
		}
		if sameFile(t, last, ckpt) {
			t.Error("the skips after the last batch were not saved")
		}
		saved, err := checkpoint.Load(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if saved.Faults.SkippedRecords != 2 || saved.Reads != len(fx.reads) {
			t.Errorf("saved %d skipped records over %d reads, want 2 over %d",
				saved.Faults.SkippedRecords, saved.Reads, len(fx.reads))
		}
	})

	t.Run("empty input", func(t *testing.T) {
		_, last, samPath, ckpt := checkpointedRun(t, fx, t.TempDir(), nil, 4, false, false)
		if last != nil {
			t.Fatal("an empty input ran a batch")
		}
		out, err := os.ReadFile(samPath)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
		for _, l := range lines {
			if !strings.HasPrefix(l, "@") {
				t.Fatalf("SAM of an empty input holds a record: %q", l)
			}
		}
		if len(lines) < 2 {
			t.Errorf("SAM of an empty input has no header: %q", out)
		}
		saved, err := checkpoint.Load(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if saved.Batches != 0 || saved.SAMBytes != int64(len(out)) {
			t.Errorf("checkpoint of an empty input: %d batches, sam_bytes %d, want 0 and %d",
				saved.Batches, saved.SAMBytes, len(out))
		}
	})

	// Resuming a finished run maps no batch. Over its SAM as it was left
	// the run writes nothing; over a SAM a crash left a torn tail on, the
	// closing flush makes the resume's cut durable.
	t.Run("resume of a finished run", func(t *testing.T) {
		dir := t.TempDir()
		_, last, samPath, ckpt := checkpointedRun(t, fx, dir, fx.fastq, 4, false, false)
		want, err := os.ReadFile(samPath)
		if err != nil {
			t.Fatal(err)
		}
		if _, again, _, _ := checkpointedRun(t, fx, dir, nil, 4, false, true); again != nil || !sameFile(t, last, ckpt) {
			t.Error("a resume with nothing left to map replaced run.ckpt")
		}
		f, err := os.OpenFile(samPath, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteString("r99\t0\tchr")
		f.Close()
		checkpointedRun(t, fx, dir, nil, 4, false, true)
		if sameFile(t, last, ckpt) {
			t.Error("a resume that cut a torn tail did not flush and save")
		}
		if got, _ := os.ReadFile(samPath); string(got) != string(want) {
			t.Errorf("resumed SAM is %d bytes, want the finished run's %d", len(got), len(want))
		}
	})
}
