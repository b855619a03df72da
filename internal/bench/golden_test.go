package bench

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from the current code")

// checkGolden requires got to equal the golden file byte for byte and
// names the first differing line; with -update it rewrites the file.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s diverges at line %d:\ngot  %q\nwant %q\n(-update regenerates; explain the move in CHANGES.md)",
				path, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s: got %d lines, golden has %d (-update regenerates; explain the move in CHANGES.md)",
		path, len(gotLines), len(wantLines))
}

// TestPrefilterSweepGolden pins the pre-alignment filter's selector×δ
// sweep at Small/seed 1 — all simulated clock, so byte-stable — to the
// committed table: zero false rejects and a passed gate on every row,
// the filtered fractions, and the break-even the cost model puts on the
// filter. Regenerate after an intended move of the cost model or the
// filter with: go test ./internal/bench -run PrefilterSweepGolden -update
func TestPrefilterSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("prefilter sweep in -short mode")
	}
	t.Setenv("REPUTE_CL_FAULTS", "") // ambient chaos must not leak into golden bytes
	ds, err := BuildDataset(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPrefilterBench(ds)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/prefilter_small.json", buf.Bytes())
}

// TestSmokeExactMetricsGolden is the regression gate on the benchmark's
// exact metrics: it runs `go run ./benchmark -smoke` from the module root
// and compares every count-clock and simulated-clock line with the
// committed ones. Left out are the wall-clock lines (report only) and the
// names containing "alloc" or "serve.", which differ between identical
// runs (GC and poll timing). A change that moves a line on purpose
// regenerates the file with
// go test ./internal/bench -run SmokeExactMetricsGolden -update
// and says in CHANGES.md which metric moved and why.
func TestSmokeExactMetricsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark smoke run in -short mode")
	}
	t.Setenv("REPUTE_CL_FAULTS", "")
	cmd := exec.Command("go", "run", "./benchmark", "-smoke")
	cmd.Dir = "../.."
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go run ./benchmark -smoke: %v\n%s", err, stderr.Bytes())
	}
	var exact bytes.Buffer
	for _, line := range strings.Split(string(out), "\n") {
		tag := strings.Index(line, "[")
		switch {
		case strings.HasPrefix(line, "== "): // "== map-dp  (seed 1, ...)" → "== map-dp"
			exact.WriteString(strings.Join(strings.Fields(line)[:2], " ") + "\n")
		case strings.Contains(line, "alloc") || strings.Contains(line, "serve."):
		case tag >= 0 && (strings.HasPrefix(line[tag:], "[count clock") || strings.HasPrefix(line[tag:], "[sim clock")):
			exact.WriteString(strings.TrimRight(line[:tag], " ") + "\n")
		}
	}
	checkGolden(t, "testdata/smoke_exact.golden", exact.Bytes())
}
