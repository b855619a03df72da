package mapper

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dna"
)

func TestOptionsWithDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.MaxLocations != 1000 {
		t.Errorf("default MaxLocations = %d want 1000", o.MaxLocations)
	}
	o = Options{MaxLocations: 5, MaxErrors: -3}.WithDefaults()
	if o.MaxLocations != 5 || o.MaxErrors != 0 {
		t.Errorf("WithDefaults clobbered fields: %+v", o)
	}
}

func TestDedupCandidates(t *testing.T) {
	cands := []Candidate{
		{Pos: 100, Strand: Forward},
		{Pos: 102, Strand: Forward}, // within tol 3 of 100
		{Pos: 110, Strand: Forward},
		{Pos: 100, Strand: Reverse}, // different strand survives
		{Pos: 50, Strand: Forward},
	}
	got := DedupCandidates(cands, 3)
	if len(got) != 4 {
		t.Fatalf("got %d candidates want 4: %+v", len(got), got)
	}
	// Sorted by strand then pos; '+' < '-' in ASCII.
	if got[0].Pos != 50 || got[1].Pos != 100 || got[2].Pos != 110 || got[3].Strand != Reverse {
		t.Errorf("unexpected order: %+v", got)
	}
	if out := DedupCandidates(nil, 3); len(out) != 0 {
		t.Errorf("nil input gave %v", out)
	}
}

func TestFinalizeDedupAndBest(t *testing.T) {
	ms := []Mapping{
		{Pos: 10, Strand: Forward, Dist: 2},
		{Pos: 10, Strand: Forward, Dist: 1}, // duplicate pos: keep min dist
		{Pos: 20, Strand: Forward, Dist: 0},
		{Pos: 30, Strand: Reverse, Dist: 1},
	}
	all := Finalize(append([]Mapping(nil), ms...), false, 0)
	if len(all) != 3 {
		t.Fatalf("all: got %d want 3: %+v", len(all), all)
	}
	if all[0].Pos != 10 || all[0].Dist != 1 {
		t.Errorf("dedup kept wrong dist: %+v", all[0])
	}
	best := Finalize(append([]Mapping(nil), ms...), true, 0)
	if len(best) != 1 || best[0].Pos != 20 || best[0].Dist != 0 {
		t.Errorf("best stratum = %+v want pos 20 dist 0", best)
	}
	capped := Finalize(append([]Mapping(nil), ms...), false, 2)
	if len(capped) != 2 {
		t.Errorf("cap 2 gave %d", len(capped))
	}
	if out := Finalize(nil, true, 5); len(out) != 0 {
		t.Errorf("nil finalize gave %v", out)
	}
}

func TestVerifyStateFindsPlanted(t *testing.T) {
	refStr := "ACGTACGTTTGCAGCAATCGATCGGGCTATATCGCGGCAT"
	ref := dna.MustEncode(refStr)
	text := dna.Pack(ref)
	read := dna.MustEncode("GCAGCAATCG") // at position 10
	vs := &VerifyState{}
	ms, cost := vs.Verify(text, read, []Candidate{{Pos: 10, Strand: Forward}}, 1, 10)
	if len(ms) != 1 || ms[0].Pos != 10 || ms[0].Dist != 0 {
		t.Fatalf("verify = %+v want pos 10 dist 0", ms)
	}
	if cost.Windows != 1 || cost.VerifyWords <= 0 {
		t.Errorf("cost = %+v", cost)
	}
	// Reverse strand: a read that is the revcomp of ref[10:20] maps there
	// with Strand='-'.
	ms, _ = vs.Verify(text, dna.ReverseComplement(ref[10:20]), []Candidate{{Pos: 10, Strand: Reverse}}, 1, 10)
	if len(ms) != 1 || ms[0].Strand != Reverse {
		t.Fatalf("reverse verify = %+v", ms)
	}
}

func TestVerifyStateRejectsAndClamps(t *testing.T) {
	ref := dna.MustEncode("AAAAAAAAAAAAAAAAAAAA")
	text := dna.Pack(ref)
	read := dna.MustEncode("CCCCCCCC")
	vs := &VerifyState{}
	ms, _ := vs.Verify(text, read, []Candidate{{Pos: 5, Strand: Forward}}, 2, 10)
	if len(ms) != 0 {
		t.Errorf("hopeless candidate verified: %+v", ms)
	}
	// Candidate near the end: window clamps, nothing crashes.
	ms, _ = vs.Verify(text, dna.MustEncode("AAAA"), []Candidate{{Pos: 18, Strand: Forward}}, 1, 10)
	for _, m := range ms {
		if int(m.Pos) >= text.Len() {
			t.Errorf("mapping beyond text: %+v", m)
		}
	}
	// Candidate far past the end is skipped outright.
	ms, _ = vs.Verify(text, read, []Candidate{{Pos: 100, Strand: Forward}}, 1, 10)
	if len(ms) != 0 {
		t.Errorf("out-of-range candidate verified: %+v", ms)
	}
}

// TestVerifyStateReuse runs one VerifyState over reads of different
// lengths whose candidates mix both strands in no particular order — the
// per-strand verifiers are bound once per read, whatever the order — and
// requires the mappings a fresh state gives. Once warm it may allocate
// only the mappings it returns.
func TestVerifyStateReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ref := make([]byte, 4000)
	for i := range ref {
		ref[i] = byte(rng.Intn(4))
	}
	type query struct {
		read  []byte
		cands []Candidate
		hits  int
	}
	var queries []query
	for _, n := range []int{150, 40, 100, 129, 64} {
		fwdAt, revAt := int32(rng.Intn(1500)), int32(2000+rng.Intn(1500))
		read := append([]byte(nil), ref[fwdAt:int(fwdAt)+n]...)
		read[n/2] ^= 1
		// The same read also matches, reverse-complemented, at revAt.
		copy(ref[revAt:], dna.ReverseComplement(read))
		queries = append(queries, query{read: read, hits: 2, cands: []Candidate{
			{Pos: revAt + 2, Strand: Reverse}, {Pos: 700, Strand: Forward},
			{Pos: 1900, Strand: Reverse}, {Pos: fwdAt - 1, Strand: Forward},
		}})
	}
	text := dna.Pack(ref)
	var shared VerifyState
	for i, q := range queries {
		got, gotCost := shared.Verify(text, q.read, q.cands, 3, 10)
		want, wantCost := new(VerifyState).Verify(text, q.read, q.cands, 3, 10)
		if !slices.Equal(got, want) || gotCost != wantCost {
			t.Errorf("query %d: reused state %+v %+v, fresh state %+v %+v", i, got, gotCost, want, wantCost)
		}
		if len(got) != q.hits {
			t.Errorf("query %d: %d mappings want %d: %+v", i, len(got), q.hits, got)
		}
	}
	q := queries[0]
	junk := []Candidate{{Pos: 700, Strand: Forward}, {Pos: 1900, Strand: Reverse}}
	if n := testing.AllocsPerRun(20, func() { shared.Verify(text, q.read, junk, 3, 10) }); n != 0 {
		t.Errorf("Verify with nothing to report allocates %v times per run", n)
	}
	// Two mappings appended to a nil slice grow it twice.
	if n := testing.AllocsPerRun(20, func() { shared.Verify(text, q.read, q.cands, 3, 10) }); n > 2 {
		t.Errorf("Verify reporting 2 mappings allocates %v times per run, want <= 2", n)
	}
}

func TestValidateReads(t *testing.T) {
	good := [][]byte{dna.MustEncode("ACGTACGT")}
	if err := ValidateReads(good, Options{MaxErrors: 3}); err != nil {
		t.Errorf("valid reads rejected: %v", err)
	}
	if err := ValidateReads([][]byte{{}}, Options{}); err == nil {
		t.Error("empty read accepted")
	}
	if err := ValidateReads([][]byte{{0, 1}}, Options{MaxErrors: 2}); err == nil {
		t.Error("read shorter than error budget accepted")
	}
	if err := ValidateReads([][]byte{{0, 7, 1}}, Options{}); err == nil {
		t.Error("invalid code accepted")
	}
}

func TestResultCounters(t *testing.T) {
	r := &Result{Mappings: [][]Mapping{
		{{Pos: 1}, {Pos: 2}},
		nil,
		{{Pos: 3}},
	}}
	if r.MappedReads() != 2 {
		t.Errorf("MappedReads = %d want 2", r.MappedReads())
	}
	if r.TotalLocations() != 3 {
		t.Errorf("TotalLocations = %d want 3", r.TotalLocations())
	}
}

func TestFaultStatsSkippedRecords(t *testing.T) {
	var f FaultStats
	if f.Any() {
		t.Error("zero FaultStats must report Any() == false")
	}
	f.Add(FaultStats{SkippedRecords: 2, SkipReasons: map[string]int{"length-mismatch": 2}})
	f.Add(FaultStats{SkippedRecords: 2, SkipReasons: map[string]int{"length-mismatch": 1, "short-read": 1}})
	if !f.Any() {
		t.Error("skipped records must count as a fault for Any()")
	}
	if f.SkippedRecords != 4 {
		t.Errorf("SkippedRecords = %d, want 4", f.SkippedRecords)
	}
	if f.SkipReasons["length-mismatch"] != 3 || f.SkipReasons["short-read"] != 1 {
		t.Errorf("SkipReasons = %v", f.SkipReasons)
	}
	// Adding an empty stats value must not allocate a reasons map.
	var g FaultStats
	g.Add(FaultStats{})
	if g.SkipReasons != nil {
		t.Error("Add of empty stats allocated a SkipReasons map")
	}
}
