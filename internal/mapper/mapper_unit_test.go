package mapper

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
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

// dedupByComparator is DedupCandidates as a comparator sort by (Strand,
// Pos) followed by the same collapse: the oracle for the integer-key sort.
func dedupByComparator(cands []Candidate, tol int32) []Candidate {
	if len(cands) == 0 {
		return cands
	}
	slices.SortFunc(cands, func(a, b Candidate) int {
		if a.Strand != b.Strand {
			return int(a.Strand) - int(b.Strand)
		}
		return cmp.Compare(a.Pos, b.Pos)
	})
	out := cands[:1]
	for _, c := range cands[1:] {
		last := out[len(out)-1]
		if c.Strand == last.Strand && c.Pos-last.Pos <= tol {
			continue
		}
		out = append(out, c)
	}
	return out
}

// dedupShapes builds n candidates of each key shape the radix sort has
// to get right: a random mix (both strands, negative and extreme
// positions, exact duplicates), all keys equal, keys that differ only
// in the lowest bit or only in the strand, negative positions, the
// int32 extremes, one far outlier among clustered keys, and pairs that
// share every digit but the lowest and arrive out of order.
func dedupShapes(rng *rand.Rand, n int) map[string][]Candidate {
	strand := func() byte { return Forward + byte(rng.Intn(2))*(Reverse-Forward) }
	shapes := map[string][]Candidate{}
	// f draws candidate i given the ones before it.
	add := func(name string, f func(i int, prev []Candidate) Candidate) {
		cands := make([]Candidate, 0, n)
		for i := range n {
			cands = append(cands, f(i, cands))
		}
		shapes[name] = cands
	}
	add("mix", func(i int, prev []Candidate) Candidate {
		c := Candidate{Pos: int32(rng.Intn(400) - 100), Strand: strand()}
		switch rng.Intn(8) {
		case 0:
			c.Pos = int32(rng.Uint32())
		case 1:
			c.Pos = []int32{math.MinInt32, math.MaxInt32, -1, 0}[rng.Intn(4)]
		case 2:
			if i > 0 {
				c = prev[rng.Intn(i)] // exact duplicate
			}
		}
		return c
	})
	add("equal", func(int, []Candidate) Candidate { return Candidate{Pos: 777, Strand: Reverse} })
	add("lowest bit", func(int, []Candidate) Candidate { return Candidate{Pos: 1000 + int32(rng.Intn(2)), Strand: Forward} })
	add("strand only", func(int, []Candidate) Candidate { return Candidate{Pos: -5, Strand: strand()} })
	add("negative", func(int, []Candidate) Candidate {
		return Candidate{Pos: -1 - int32(rng.Intn(5000)), Strand: strand()}
	})
	add("extremes", func(int, []Candidate) Candidate {
		return Candidate{Pos: []int32{math.MinInt32, math.MinInt32 + 1, math.MaxInt32 - 1, math.MaxInt32}[rng.Intn(4)], Strand: strand()}
	})
	add("outlier", func(i int, _ []Candidate) Candidate {
		if i == n/2 {
			return Candidate{Pos: math.MaxInt32 - 7, Strand: Forward}
		}
		return Candidate{Pos: 500_000 + int32(rng.Intn(64)), Strand: Forward}
	})
	add("pairs", func(i int, _ []Candidate) Candidate { return Candidate{Pos: int32(i/2*256 + 1 - i%2), Strand: Reverse} })
	return shapes
}

// TestDedupCandidatesVsComparator holds the in-place integer-key sort to
// the comparator oracle on every dedupShapes shape, at sizes that reach
// either side of the insertion-sort cutoff and one and two radix levels
// (4 000 is two strands at a 2 000-row locate budget), with tol 0…8;
// and pins it at no allocation at the largest size.
func TestDedupCandidatesVsComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	sizes := []int{0, 1, insertionCutoff - 1, insertionCutoff, insertionCutoff + 1, 256, 4000}
	for trial := range 60 {
		for _, n := range sizes {
			for name, cands := range dedupShapes(rng, n) {
				tol := int32(trial % 9)
				want := dedupByComparator(slices.Clone(cands), tol)
				if got := DedupCandidates(slices.Clone(cands), tol); !slices.Equal(got, want) {
					t.Fatalf("trial %d, %s, %d keys, tol %d:\ngot  %v\nwant %v", trial, name, n, tol, got, want)
				}
			}
		}
	}
	cands := dedupShapes(rng, sizes[len(sizes)-1])["mix"]
	work := make([]Candidate, len(cands))
	if n := testing.AllocsPerRun(20, func() { DedupCandidates(work[:copy(work, cands)], 5) }); n != 0 {
		t.Errorf("DedupCandidates allocates %v times per call", n)
	}
}

// TestSortKeysLevels pins the radix sort's work: keys that differ only
// in their lowest 8 bits take one level, distributing each key once,
// however high their common bits reach; runs up to insertionCutoff keys
// take none.
func TestSortKeysLevels(t *testing.T) {
	for _, n := range []int{2, insertionCutoff, insertionCutoff + 1, 256} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(Reverse)<<32 | 1<<31 | uint64(255-i%256)
		}
		want := n
		if n <= insertionCutoff {
			want = 0
		}
		if got := sortKeys(keys); got != want || !slices.IsSorted(keys) {
			t.Errorf("%d keys: distributed %d keys, want %d; sorted %v", n, got, want, slices.IsSorted(keys))
		}
	}
}

// FuzzDedupCandidates holds DedupCandidates to the comparator oracle on
// candidates decoded from the input, five bytes each: a little-endian
// position and a strand bit.
func FuzzDedupCandidates(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 2, 0, 0, 0, 1}, uint8(1))
	f.Add(bytes.Repeat([]byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 0, 0, 0, 0x80, 0}, 40), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, tol uint8) {
		var cands []Candidate
		for ; len(raw) >= 5; raw = raw[5:] {
			c := Candidate{Pos: int32(binary.LittleEndian.Uint32(raw)), Strand: Forward}
			if raw[4]&1 == 1 {
				c.Strand = Reverse
			}
			cands = append(cands, c)
		}
		want := dedupByComparator(slices.Clone(cands), int32(tol%9))
		if got := DedupCandidates(cands, int32(tol%9)); !slices.Equal(got, want) {
			t.Fatalf("got  %v\nwant %v", got, want)
		}
	})
}

// TestWindow pins the one window rule: [pos−δ, pos+n+δ) clamped to the
// text, refused when shorter than n−δ.
func TestWindow(t *testing.T) {
	for _, tc := range []struct {
		pos             int32
		n, maxErr, tlen int
		lo, hi          int
		ok              bool
	}{
		{pos: 50, n: 20, maxErr: 2, tlen: 1000, lo: 48, hi: 72, ok: true},
		{pos: 1, n: 20, maxErr: 3, tlen: 1000, lo: 0, hi: 24, ok: true},
		{pos: -5, n: 20, maxErr: 3, tlen: 1000, lo: 0, hi: 18, ok: true},
		{pos: -6, n: 20, maxErr: 3, tlen: 1000, lo: 0, hi: 17, ok: true},
		{pos: -7, n: 20, maxErr: 3, tlen: 1000, lo: 0, hi: 16, ok: false},
		{pos: 985, n: 20, maxErr: 3, tlen: 1000, lo: 982, hi: 1000, ok: true},
		{pos: 987, n: 20, maxErr: 3, tlen: 1000, lo: 984, hi: 1000, ok: false},
		{pos: 0, n: 20, maxErr: 0, tlen: 10, lo: 0, hi: 10, ok: false},
	} {
		lo, hi, ok := Window(tc.pos, tc.n, tc.maxErr, tc.tlen)
		if lo != tc.lo || hi != tc.hi || ok != tc.ok {
			t.Errorf("Window(%d, %d, %d, %d) = %d, %d, %v want %d, %d, %v",
				tc.pos, tc.n, tc.maxErr, tc.tlen, lo, hi, ok, tc.lo, tc.hi, tc.ok)
		}
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
// requires the mappings a fresh state gives. Once warm it allocates only
// the mappings it returns, in one allocation.
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
	// The mappings are allocated once, at the size the matches need.
	if n := testing.AllocsPerRun(20, func() { shared.Verify(text, q.read, q.cands, 3, 10) }); n != 1 {
		t.Errorf("Verify reporting 2 mappings allocates %v times per run, want 1", n)
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
