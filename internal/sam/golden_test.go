package sam_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/mapper"
	"repro/internal/sam"
	"repro/internal/simulate"
)

var update = flag.Bool("update", false, "rewrite the SAM golden file from the current pipeline output")

const goldenPath = "testdata/golden.sam"

// goldenSAM maps a fixed simulated read set on a serial single-CPU
// pipeline and renders it to SAM, CIGARs included — the full host output
// path end to end. Every knob is pinned (generator seeds, device, exec
// mode, mapper options), so the bytes are reproducible anywhere.
func goldenSAM(t *testing.T) []byte {
	t.Helper()
	ref := simulate.Reference(simulate.Chr21Like(30_000, 11))
	set, err := simulate.Reads(ref, 24, simulate.ERR012100, 12)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(ref, []*cl.Device{cl.SystemOneCPU()},
		core.Config{Name: "REPUTE-golden", Exec: cl.Serial})
	if err != nil {
		t.Fatal(err)
	}
	opt := mapper.Options{MaxErrors: 3, MaxLocations: 16}
	res, err := p.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	sw, err := sam.NewMultiWriter(&buf, []sam.RefSeq{{Name: "sim21", Length: len(ref)}})
	if err != nil {
		t.Fatal(err)
	}
	for i, ms := range res.Mappings {
		alns := make([]sam.Alignment, len(ms))
		for j, m := range ms {
			cg, err := p.CigarFor(set.Reads[i], m, opt.MaxErrors)
			if err != nil {
				t.Fatalf("read %d mapping %d: %v", i, j, err)
			}
			alns[j] = sam.Alignment{RName: "sim21", Pos: m.Pos, Strand: m.Strand, Dist: m.Dist, Cigar: cg.String(), MAPQ: 255}
		}
		name := fmt.Sprintf("sim_read_%03d", i)
		if err := sw.WriteAlignments(name, []byte(dna.Decode(set.Reads[i])), alns); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSAMGolden byte-diffs the pipeline's SAM output against the
// checked-in golden file. Regenerate after an intentional output change
// with: go test ./internal/sam -run TestSAMGolden -update
func TestSAMGolden(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "") // ambient chaos must not leak into golden bytes
	got := goldenSAM(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Report the first differing line, not a wall of bytes.
	gotLines := bytes.Split(got, []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("SAM output diverges from golden at line %d:\ngot  %q\nwant %q\n(-update regenerates)",
				i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("SAM output length differs: got %d lines, golden has %d (-update regenerates)",
		len(gotLines), len(wantLines))
}

// TestSAMGoldenParses keeps the golden file itself honest: it must stay
// parseable by this package's reader and carry one primary record per
// simulated read.
func TestSAMGoldenParses(t *testing.T) {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	defer f.Close()
	recs, err := sam.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	byRead := map[string]int{}
	for _, r := range recs {
		if r.Flag&sam.FlagSecondary == 0 {
			byRead[r.Name]++
		}
	}
	if len(byRead) != 24 {
		t.Errorf("golden covers %d reads, want 24", len(byRead))
	}
	for name, n := range byRead {
		if n != 1 {
			t.Errorf("read %s has %d primary records, want 1", name, n)
		}
	}
}
