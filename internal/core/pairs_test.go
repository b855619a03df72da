package core_test

// Paired-end mapping tests. core has no paired entry point of its own: a
// paired run is a serve.RunStream over two mate files, a mate pair being
// two adjacent reads of one pipeline batch, paired after the merge. The
// tests sit in the external test package so they can drive the runner,
// and read every property off the SAM it writes — concordant origins,
// rescue of a multi-mapping mate, byte-identical recovery from a fault
// plan, serial/parallel identity, and one contiguous trace timeline.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/fmindex"
	"repro/internal/genome"
	"repro/internal/index"
	"repro/internal/mapper"
	"repro/internal/sam"
	"repro/internal/serve"
	"repro/internal/simulate"
	"repro/internal/trace"
)

// pairedWorld is a simulated FR library over a fresh reference: the
// index artifact, its genome, the two mate FASTQ files and the truth.
type pairedWorld struct {
	file    *index.File
	g       *genome.Genome
	mates   [2]string
	origins []simulate.PairOrigin
}

func newPairedWorld(t *testing.T, refLen int, refSeed int64, n int, insert float64, seed int64) *pairedWorld {
	t.Helper()
	ref := simulate.Reference(simulate.Chr21Like(refLen, refSeed))
	ps, err := simulate.PairedReads(ref, n, simulate.ERR012100, insert, 35, seed)
	if err != nil {
		t.Fatal(err)
	}
	g, err := genome.New([]string{"chr21s"}, [][]byte{ref})
	if err != nil {
		t.Fatal(err)
	}
	f, err := index.Build(g, 1, 0, fmindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := &pairedWorld{file: f, g: g, origins: ps.Origins}
	dir := t.TempDir()
	for m, reads := range [][][]byte{ps.Reads1, ps.Reads2} {
		var fq bytes.Buffer
		for i, r := range reads {
			fmt.Fprintf(&fq, "@frag%03d/%d\n%s\n+\n%s\n", i, m+1, dna.Decode(r), strings.Repeat("I", len(r)))
		}
		w.mates[m] = filepath.Join(dir, fmt.Sprintf("mates%d.fq", m+1))
		if err := os.WriteFile(w.mates[m], fq.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// run maps reads[0] — paired with reads[1] when given, insert band
// 200..700 — through RunStream and returns the SAM and the final state.
func (w *pairedWorld) run(t *testing.T, devs []*cl.Device, cfg core.Config, opt mapper.Options, batch int, reads ...string) ([]byte, *checkpoint.State) {
	t.Helper()
	p, err := serve.NewPipeline(w.file, devs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := serve.Stream{Pipeline: p, Genome: w.g, Opt: opt, Batch: batch,
		ReadsPath: reads[0], ReadsName: reads[0], Pair: mapper.PairOptions{MinInsert: 200, MaxInsert: 700},
		SAMPath: filepath.Join(t.TempDir(), "out.sam")}
	if len(reads) > 1 {
		s.Reads2Path = reads[1]
	}
	st, err := serve.RunStream(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(s.SAMPath)
	if err != nil {
		t.Fatal(err)
	}
	return out, st
}

func parseSAM(t *testing.T, b []byte) []sam.Record {
	t.Helper()
	recs, err := sam.Parse(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// properPairs indexes a paired run's proper-pair records by fragment,
// mate 1 first; a fragment with none was not written as a proper pair.
func properPairs(t *testing.T, out []byte, fragments int) [][]sam.Record {
	t.Helper()
	proper := make([][]sam.Record, fragments)
	for _, r := range parseSAM(t, out) {
		if r.Flag&sam.FlagProperPair == 0 {
			continue
		}
		i := fragIndex(t, r.Name)
		proper[i] = append(proper[i], r)
	}
	return proper
}

func fragIndex(t *testing.T, name string) int {
	t.Helper()
	var i int
	if _, err := fmt.Sscanf(name, "frag%d", &i); err != nil {
		t.Fatal(err)
	}
	return i
}

// pairedLibrary is the library both the concordance and the rescue tests
// map: 200 fragments of insert 400 over an 80 kbp reference with repeats.
func pairedLibrary(t *testing.T) (*pairedWorld, mapper.Options) {
	return newPairedWorld(t, 80_000, 33, 200, 400, 34), mapper.Options{MaxErrors: 4, MaxLocations: 200}
}

func oneCPU() []*cl.Device { return []*cl.Device{cl.SystemOneCPU()} }

// TestMapPairsFindsConcordantOrigins: nearly every fragment whose mates
// are within δ is written as a proper pair at its simulated origin, every
// proper pair's TLEN lies in the insert band, and the checkpoint's
// concordant tally matches the SAM.
func TestMapPairsFindsConcordantOrigins(t *testing.T) {
	w, opt := pairedLibrary(t)
	out, st := w.run(t, oneCPU(), core.Config{}, opt, 64, w.mates[0], w.mates[1])
	if st.SimSeconds <= 0 || st.EnergyJ <= 0 || st.Cost.Items != int64(2*len(w.origins)) {
		t.Errorf("accounting: %v s, %v J, %+v", st.SimSeconds, st.EnergyJ, st.Cost)
	}

	proper := properPairs(t, out, len(w.origins))
	concordant := 0
	for _, recs := range proper {
		if len(recs) > 0 {
			concordant++
		}
	}
	if st.Concordant != concordant {
		t.Errorf("checkpoint tallies %d concordant fragments, the SAM holds %d", st.Concordant, concordant)
	}
	for _, n := range properTLENs(t, out) {
		if n < 200 || n > 700 {
			t.Fatalf("proper pair with |TLEN| %d outside the insert band", n)
		}
	}

	found, eligible := 0, 0
	for i, o := range w.origins {
		if int(o.Edits1) > opt.MaxErrors || int(o.Edits2) > opt.MaxErrors {
			continue
		}
		eligible++
		if len(proper[i]) == 2 && near(proper[i][0], o.Pos1, o.Strand1, opt.MaxErrors) &&
			near(proper[i][1], o.Pos2, o.Strand2, opt.MaxErrors) {
			found++
		}
	}
	if eligible < 150 {
		t.Fatalf("only %d eligible fragments", eligible)
	}
	if found < eligible*98/100 {
		t.Fatalf("concordant recovery %d/%d below 98%%", found, eligible)
	}
}

// TestMapPairsRescue: a mate inside a high-copy repeat maps to many
// places on its own; pairing with its unique partner pins it to one
// proper pair.
func TestMapPairsRescue(t *testing.T) {
	w, opt := pairedLibrary(t)
	out, _ := w.run(t, oneCPU(), core.Config{}, opt, 64, w.mates[0], w.mates[1])
	proper := properPairs(t, out, len(w.origins))

	// The mates mapped single-end, each file on its own.
	rescued := 0
	for m := range w.mates {
		single, _ := w.run(t, oneCPU(), core.Config{}, opt, 0, w.mates[m])
		for name, ms := range sam.GroupByRead(parseSAM(t, single)) {
			if len(ms) > 3 && len(proper[fragIndex(t, name)]) == 2 {
				rescued++
			}
		}
	}
	if rescued == 0 {
		t.Error("no multi-mapping mate was rescued by pairing — repeat structure missing?")
	}
}

// near reports a record within δ of a simulated origin, on its strand.
func near(r sam.Record, pos int32, strand byte, maxErrors int) bool {
	d := r.RefPos - pos
	if d < 0 {
		d = -d
	}
	return r.Strand() == strand && d <= int32(maxErrors)
}

// properTLENs returns |TLEN| of every proper-pair record.
func properTLENs(t *testing.T, b []byte) []int {
	t.Helper()
	var out []int
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Split(line, "\t")
		if strings.HasPrefix(line, "@") || len(f) < 9 {
			continue
		}
		var flag, tlen int
		fmt.Sscan(f[1], &flag)
		fmt.Sscan(f[8], &tlen)
		if flag&sam.FlagProperPair == 0 {
			continue
		}
		if tlen < 0 {
			tlen = -tlen
		}
		out = append(out, tlen)
	}
	return out
}

// faultyPair builds two CPU devices whose MaxAlloc is clamped so a batch
// takes several enqueues and allocations, with a transient launch
// failure and an allocation failure on the first and a permanent loss
// of the second partway through the run. maxLoc sizes the output slots
// against the clamp and must be used for the run.
func faultyPair(t *testing.T, w *pairedWorld) (mkDevs func() []*cl.Device, maxLoc int) {
	t.Helper()
	ixBytes := w.file.Indexes[0].SizeBytes()
	return func() []*cl.Device {
		a, b := cl.SystemOneCPU(), cl.SystemOneCPU()
		a.Name, b.Name = "CPU-A", "CPU-B"
		a.MaxAlloc, b.MaxAlloc = ixBytes, ixBytes
		a.InstallFaults(&cl.FaultPlan{
			FailEnqueues: map[int]cl.Code{2: cl.OutOfResources},
			FailAllocs:   map[int]cl.Code{10: cl.MemObjectAllocationFailure},
		})
		b.InstallFaults(&cl.FaultPlan{FailEnqueues: map[int]cl.Code{4: cl.DeviceNotAvailable}})
		return []*cl.Device{a, b}
	}, int(ixBytes / 128)
}

// faultyRun maps the fault world's pairs on the faulty two-device split
// in the given execution mode, 16 fragments a batch.
func faultyRun(t *testing.T, w *pairedWorld, mode cl.ExecMode) ([]byte, *checkpoint.State) {
	t.Helper()
	mkDevs, maxLoc := faultyPair(t, w)
	return w.run(t, mkDevs(), core.Config{Split: []float64{0.5, 0.5}, Exec: mode},
		mapper.Options{MaxErrors: 3, MaxLocations: maxLoc}, 16, w.mates[0], w.mates[1])
}

// TestMapPairsRecoversFromFaultPlan: with transient launch failures, an
// injected allocation failure and a permanent device loss spread across
// a two-device split and several batches, a paired run writes SAM
// byte-identical to a fault-free serial single-device run, and accounts
// for every kind of recovery.
func TestMapPairsRecoversFromFaultPlan(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "")
	w := newPairedWorld(t, 30_000, 11, 60, 300, 77)
	_, maxLoc := faultyPair(t, w)
	want, base := w.run(t, oneCPU(), core.Config{Exec: cl.Serial},
		mapper.Options{MaxErrors: 3, MaxLocations: maxLoc}, 16, w.mates[0], w.mates[1])
	if base.Faults.Any() {
		t.Fatalf("fault-free baseline reports recovery: %+v", base.Faults)
	}

	got, st := faultyRun(t, w, cl.Serial)
	if !bytes.Equal(want, got) {
		t.Error("SAM under the fault plan differs from the fault-free SAM")
	}
	f := st.Faults
	if f.Retries < 1 || f.DegradedBatches < 1 || f.FailoverReads < 1 ||
		!reflect.DeepEqual(f.FailedDevices, []string{"CPU-B"}) {
		t.Errorf("recovery not accounted: %+v", f)
	}
}

// TestMapPairsFaultDeterminismSerialParallel: under the same fault plan,
// a serial and a parallel paired run write identical SAM with identical
// simulated totals and recovery accounting.
func TestMapPairsFaultDeterminismSerialParallel(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "")
	w := newPairedWorld(t, 30_000, 11, 60, 300, 78)
	serialSAM, serial := faultyRun(t, w, cl.Serial)
	parallelSAM, parallel := faultyRun(t, w, cl.Auto)
	if !bytes.Equal(serialSAM, parallelSAM) {
		t.Error("serial and parallel SAM differ under the fault plan")
	}
	if serial.SimSeconds != parallel.SimSeconds || serial.EnergyJ != parallel.EnergyJ ||
		serial.Cost != parallel.Cost || !reflect.DeepEqual(serial.Faults, parallel.Faults) {
		t.Errorf("simulated results differ:\nserial   %v/%v/%+v/%+v\nparallel %v/%v/%+v/%+v",
			serial.SimSeconds, serial.EnergyJ, serial.Cost, serial.Faults,
			parallel.SimSeconds, parallel.EnergyJ, parallel.Cost, parallel.Faults)
	}
	if !serial.Faults.Any() {
		t.Error("fault plans injected nothing — the comparison is vacuous")
	}
}

// TestMapPairsTraceTimeline: the batches of a paired run share one
// recorder; each batch's host map span starts where the previous one
// ended, and the whole trace validates.
func TestMapPairsTraceTimeline(t *testing.T) {
	w := newPairedWorld(t, 20_000, 11, 20, 300, 5)
	rec := trace.NewRecorder()
	w.run(t, oneCPU(), core.Config{Exec: cl.Serial, Tracer: rec},
		mapper.Options{MaxErrors: 3, MaxLocations: 50}, 5, w.mates[0], w.mates[1])
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
	var maps []trace.Event
	for _, ev := range rec.Events() {
		if ev.Lane == "host" && ev.Name == "map" {
			maps = append(maps, ev)
		}
	}
	if len(maps) != 4 {
		t.Fatalf("host map spans = %d, want 4 (20 fragments in batches of 5)", len(maps))
	}
	for i := 1; i < len(maps); i++ {
		if end := maps[i-1].Start + maps[i-1].Dur; maps[i].Start < end {
			t.Errorf("batch %d span starts at %g, inside batch %d's ending %g", i, maps[i].Start, i-1, end)
		}
	}
}
