package mapper

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cl"
	"repro/internal/dna"
	"repro/internal/filter"
)

// classCase is one read's verification input built to exercise window
// classes: a motif planted at several offsets (both orientations, at
// both text ends, at offsets that differ modulo 32), candidates on every
// copy on both strands with positions jittered and duplicated, and
// candidates clipped at either text end — some inside a homopolymer
// tail, where windows share a prefix but differ in length.
type classCase struct {
	text  dna.PackedSeq
	read  []byte
	cands []Candidate
	delta int
}

func randCodes(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(4))
	}
	return s
}

// genClassCase draws a case for read length n (> delta) from rng.
func genClassCase(rng *rand.Rand, n, delta int) classCase {
	motif := randCodes(rng, n+2*delta+rng.Intn(8))
	ref := randCodes(rng, 3*len(motif)+rng.Intn(600))
	var copies []int
	plant := func(at int, seq []byte) {
		copy(ref[at:], seq)
		copies = append(copies, at)
	}
	plant(0, motif)
	plant(len(ref)-len(motif), motif)
	for range 1 + rng.Intn(6) {
		seq := motif
		if rng.Intn(3) == 0 {
			seq = dna.ReverseComplement(motif)
		}
		plant(rng.Intn(len(ref)-len(motif)), seq)
	}
	if rng.Intn(3) == 0 { // a homopolymer tail as long as the read and a bit
		for i := len(ref) - n - delta - rng.Intn(8); i < len(ref); i++ {
			ref[i] = dna.A
		}
	}
	read := slices.Clone(motif[delta : delta+n])
	for range rng.Intn(delta + 2) {
		read[rng.Intn(n)] = byte(rng.Intn(4))
	}
	if rng.Intn(4) == 0 {
		read = slices.Clone(ref[len(ref)-n:])
	}
	var cands []Candidate
	strand := func() byte {
		if rng.Intn(2) == 0 {
			return Reverse
		}
		return Forward
	}
	for _, at := range copies {
		for range 1 + rng.Intn(3) {
			pos := int32(at + delta + rng.Intn(5) - 2)
			cands = append(cands, Candidate{Pos: pos, Strand: Forward}, Candidate{Pos: pos, Strand: Reverse})
		}
	}
	for range rng.Intn(12) {
		cands = append(cands, Candidate{Pos: int32(rng.Intn(len(ref)+2*n) - n), Strand: strand()})
	}
	for range rng.Intn(6) { // clipped at either end
		cands = append(cands,
			Candidate{Pos: int32(rng.Intn(2*delta+2) - delta - 1), Strand: strand()},
			Candidate{Pos: int32(len(ref) - n + rng.Intn(2*delta+2) - delta), Strand: strand()})
	}
	for range rng.Intn(4) {
		cands = append(cands, cands[rng.Intn(len(cands))])
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	return classCase{text: dna.Pack(ref), read: read, cands: cands, delta: delta}
}

// verifyAlone verifies every candidate on its own with a fresh state and
// finalizes the union: what Verify returns when no window is shared.
func verifyAlone(cc classCase) ([]Mapping, VerifyCost) {
	var all []Mapping
	var sum VerifyCost
	for _, c := range cc.cands {
		ms, vc := new(VerifyState).Verify(cc.text, cc.read, []Candidate{c}, cc.delta, 0)
		all = append(all, ms...)
		sum.Windows += vc.Windows
		sum.VerifyWords += vc.VerifyWords
		sum.Matched += vc.Matched
	}
	return Finalize(all, false, 0), sum
}

// checkVerifyClasses holds vs.Verify over cc to verifyAlone, and returns
// the windows it shared.
func checkVerifyClasses(t *testing.T, vs *VerifyState, cc classCase) int {
	t.Helper()
	got, gotCost := vs.Verify(cc.text, cc.read, cc.cands, cc.delta, 0)
	want, wantCost := verifyAlone(cc)
	if !slices.Equal(got, want) || gotCost != wantCost {
		t.Fatalf("n %d δ %d, %d candidates: classes give %v %+v, each alone %v %+v",
			len(cc.read), cc.delta, len(cc.cands), got, gotCost, want, wantCost)
	}
	return vs.classes.shared()
}

// TestVerifyClassesVsAlone holds Verify, which scans each window class
// once, to every candidate verified alone with a fresh state: the same
// mappings and the same VerifyCost, over one reused state. Read lengths
// include 150 at δ 7, whose windows are 164 bases, and every case plants
// copies at offsets that straddle 32-base words differently.
func TestVerifyClassesVsAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var vs VerifyState
	shared := 0
	for trial := range 600 {
		n, delta := []int{20, 40, 64, 100, 129, 150}[trial%6], trial%8
		shared += checkVerifyClasses(t, &vs, genClassCase(rng, n, delta))
	}
	if shared == 0 {
		t.Error("no window took an earlier identical window's verdict")
	}
}

// TestVerifyClassesKeyParts pins the two parts of a class key that
// content alone does not give, each with a case where sharing would
// change Matched: the strand (the same window on both strands) and the
// length (windows clipped at a text end that share a prefix).
func TestVerifyClassesKeyParts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, delta = 40, 2
	ref := randCodes(rng, 300)
	// Two substitutions: the read matches a full window at distance 2,
	// and no window one base short of the read.
	read := slices.Clone(ref[100 : 100+n])
	read[10], read[30] = 3-read[10], 3-read[30]
	// A period-3 tail: windows a whole number of periods apart share a
	// prefix. A tail read with two substitutions matches the 42-base
	// window at its start, and not the 39-base one three bases on.
	for i := len(ref) - 60; i < len(ref); i++ {
		ref[i] = []byte{dna.A, dna.C, dna.G}[i%3]
	}
	tail := slices.Clone(ref[len(ref)-42 : len(ref)-2])
	tail[10], tail[30] = 3-tail[10], 3-tail[30]
	start := slices.Clone(ref[:n])
	start[10], start[30] = 3-start[10], 3-start[30]
	text := dna.Pack(ref)
	for name, cc := range map[string]classCase{
		"strand": {read: read, cands: []Candidate{{Pos: 100, Strand: Forward}, {Pos: 100, Strand: Reverse}}},
		"start":  {read: start, cands: []Candidate{{Pos: -3, Strand: Forward}, {Pos: 0, Strand: Forward}}},
		"end": {read: tail, cands: []Candidate{
			{Pos: int32(len(ref) - 40), Strand: Forward}, {Pos: int32(len(ref) - 37), Strand: Forward}}},
	} {
		cc.text, cc.delta = text, delta
		for _, order := range [][]Candidate{cc.cands, {cc.cands[1], cc.cands[0]}} {
			cc.cands = order
			var vs VerifyState
			checkVerifyClasses(t, &vs, cc)
			if _, vc := verifyAlone(cc); vc.Matched != 1 {
				t.Fatalf("%s: the case matches %d windows, want exactly 1", name, vc.Matched)
			}
			if len(vs.classes.classes) != 2 {
				t.Errorf("%s: %d classes for two different windows", name, len(vs.classes.classes))
			}
		}
	}
}

// TestFilterClassesVsAcceptPacked holds Batch.filter, which decides each
// window class once, to AcceptPacked over each candidate alone: for
// every prefix of a case's candidates, the same survivors, Filtered
// count and filter words (the pattern charged at each strand change).
func TestFilterClassesVsAcceptPacked(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var st State
	for trial := range 150 {
		n, delta := []int{20, 64, 100, 150}[trial%4], trial%8
		cc := genClassCase(rng, n, delta)
		b := &Batch{Text: cc.text, MaxErrors: delta, Prefilter: PrefilterGateKeeper}
		st.rev = dna.ReverseComplement(cc.read)
		for k := range len(cc.cands) + 1 {
			var want cl.Cost
			var wantKept []Candidate
			prepared := byte(0xFF)
			for _, c := range cc.cands[:k] {
				lo, hi, ok := Window(c.Pos, n, delta, cc.text.Len())
				if !ok {
					want.Filtered++
					continue
				}
				var fs filter.State
				words := fs.Prepare(st.Pattern(cc.read, c.Strand), delta)
				if c.Strand != prepared {
					want.FilterWords += words
					prepared = c.Strand
				}
				ok, fw := fs.AcceptPacked(cc.text, lo, hi)
				want.FilterWords += fw
				if !ok {
					want.Filtered++
					continue
				}
				wantKept = append(wantKept, c)
			}
			var got cl.Cost
			cands := slices.Clone(cc.cands[:k])
			st.vs.classes.assign(cc.text, n, delta, cands)
			kept := b.filter(&st, cc.read, cands, &got)
			if !slices.Equal(kept, wantKept) || got != want {
				t.Fatalf("trial %d, first %d candidates: classes keep %v %+v, each alone %v %+v",
					trial, k, kept, got, wantKept, want)
			}
		}
	}
}

// TestClassHandoff holds the kernel's one class pass per read to a
// class pass per stage: the verify stage over Batch.filter's survivors,
// which reads the classes the filter compacted with them, must give what
// a fresh VerifyState.Verify of the same survivors gives, in mappings and
// in VerifyCost. Each case runs whole, then on only the candidates the
// filter accepts and only those it rejects (all-accepted and
// all-rejected reads); the cases must include windows the filter accepts
// and Myers rejects, so a verify stage that read the filter's verdict
// would fail here.
func TestClassHandoff(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var st State
	falseAccepts, allRejected := int64(0), 0
	for trial := range 300 {
		n, delta := []int{20, 40, 64, 100, 150}[trial%5], trial%8
		cc := genClassCase(rng, n, delta)
		b := &Batch{Text: cc.text, MaxErrors: delta, Prefilter: PrefilterGateKeeper}
		st.rev = dna.ReverseComplement(cc.read)
		handoff := func(cands []Candidate) []Candidate {
			t.Helper()
			var cost cl.Cost
			cands = slices.Clone(cands)
			st.vs.classes.assign(cc.text, n, delta, cands)
			kept := b.filter(&st, cc.read, cands, &cost)
			got, gotCost := st.vs.verify(cc.text, cc.read, kept, delta, 0)
			want, wantCost := new(VerifyState).Verify(cc.text, cc.read, kept, delta, 0)
			if !slices.Equal(got, want) || gotCost != wantCost {
				t.Fatalf("trial %d, %d of %d candidates kept: handoff gives %v %+v, fresh Verify %v %+v",
					trial, len(kept), len(cands), got, gotCost, want, wantCost)
			}
			falseAccepts += int64(len(kept)) - wantCost.Matched
			return kept
		}
		kept := handoff(cc.cands)
		var rejected []Candidate
		for _, c := range cc.cands {
			if !slices.Contains(kept, c) {
				rejected = append(rejected, c)
			}
		}
		if got := handoff(kept); len(got) != len(kept) {
			t.Fatalf("trial %d: the filter's survivors lose %d on a second pass", trial, len(kept)-len(got))
		}
		if got := handoff(rejected); len(got) != 0 {
			t.Fatalf("trial %d: %d rejected candidates pass on a second pass", trial, len(got))
		}
		if len(kept) == 0 {
			allRejected++
		}
	}
	if falseAccepts == 0 {
		t.Error("no case has a window the filter accepts and Myers rejects")
	}
	t.Logf("%d false accepts; %d cases the filter rejects whole", falseAccepts, allRejected)
}

// TestClassPassAllocFree pins the class pass, the filter, a Verify with
// nothing to report and the kernel's whole work item with the prefilter
// (one class pass per read) at zero allocations once the state has grown.
func TestClassPassAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cc := genClassCase(rng, 150, 7)
	for len(cc.cands) < 200 {
		cc.cands = append(cc.cands, cc.cands...)
	}
	b := &Batch{
		Text: cc.text, OwnEnd: int64(cc.text.Len()), MaxErrors: cc.delta, Prefilter: PrefilterGateKeeper,
		Generate: func(st *State, _ []byte, strand byte, _ *cl.Cost) {
			for _, c := range cc.cands {
				if c.Strand == strand {
					st.Cands = append(st.Cands, c)
				}
			}
		},
	}
	st := &State{rev: dna.ReverseComplement(cc.read)}
	unmatched := randCodes(rng, len(cc.read)) // matches no window at δ 7
	var cost cl.Cost
	work := make([]Candidate, len(cc.cands))
	for name, f := range map[string]func(){
		"class pass": func() { st.vs.classes.assign(cc.text, len(cc.read), cc.delta, cc.cands) },
		"filter": func() {
			cands := work[:copy(work, cc.cands)]
			st.vs.classes.assign(cc.text, len(cc.read), cc.delta, cands)
			b.filter(st, cc.read, cands, &cost)
		},
		"verify":  func() { st.vs.Verify(cc.text, unmatched, cc.cands, cc.delta, 0) },
		"mapRead": func() { b.mapRead(st, unmatched, &cost) },
	} {
		f()
		if n := testing.AllocsPerRun(20, f); n != 0 {
			t.Errorf("%s allocates %v times per read", name, n)
		}
	}
}

// FuzzVerifyClasses draws a class case from the fuzz input and holds
// Verify to every candidate verified alone.
func FuzzVerifyClasses(f *testing.F) {
	f.Add(int64(1), uint8(100), uint8(2))
	f.Add(int64(2), uint8(150), uint8(7))
	f.Add(int64(3), uint8(20), uint8(0))
	var vs VerifyState
	f.Fuzz(func(t *testing.T, seed int64, n, delta uint8) {
		d := int(delta % 9)
		checkVerifyClasses(t, &vs, genClassCase(rand.New(rand.NewSource(seed)), d+1+int(n%160), d))
	})
}
