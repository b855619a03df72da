package mapper

import (
	"math/rand"
	"testing"

	"repro/internal/cl"
	"repro/internal/fmindex"
)

// TestLocateBudget holds State.Locate to Policy.Locate's first-n rule:
// each strand gets the whole budget; rows are taken in the order the
// generator offers intervals, and the interval that crosses the budget
// yields its lowest SA rows; an empty or inverted interval (GEM's failed
// extends leave lo ≥ hi) takes, charges and refunds nothing; Exhausted
// flips on the row that spends the budget; a budget of 0 caps nothing;
// and every row taken is charged 1 + ix.LocateSteps() LocateSteps.
func TestLocateBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := make([]byte, 4000)
	for i := range ref {
		ref[i] = byte(rng.Intn(4))
	}
	ix := fmindex.Build(ref, fmindex.Options{SASampleRate: 4}) // 1.5 LF steps per row
	lo, hi := ix.Range([]byte{0, 1})
	if hi-lo < 40 {
		t.Fatalf("interval of %d rows is too small for the script", hi-lo)
	}
	const off = 3
	intervals := [][2]int{{lo, lo + 4}, {lo + 7, lo + 7}, {lo + 9, lo + 6}, {lo, lo + 5}, {lo + 20, hi}, {lo, hi}}
	for _, tc := range []struct {
		budget    int
		took      []int
		exhausted []bool
	}{
		{10, []int{4, 0, 0, 5, 1, 0}, []bool{false, false, false, false, true, true}},
		{0, []int{4, 0, 0, 5, hi - lo - 20, hi - lo}, make([]bool, len(intervals))},
	} {
		total := 0
		gen := func(st *State, _ []byte, strand byte, cost *cl.Cost) {
			if st.Exhausted() {
				t.Errorf("budget %d: strand %c starts exhausted", tc.budget, strand)
			}
			for i, iv := range intervals {
				n, charged := len(st.Cands), cost.LocateSteps
				st.Locate(ix, iv[0], iv[1], off, strand, cost)
				got, want := st.Cands[n:], ix.Locate(iv[0], iv[0]+tc.took[i], 0, nil)
				if len(got) != len(want) {
					t.Fatalf("budget %d: strand %c: interval %d took %d rows want %d", tc.budget, strand, i, len(got), len(want))
				}
				for j, c := range got {
					if c != (Candidate{Pos: want[j] - off, Strand: strand}) {
						t.Errorf("budget %d: strand %c: interval %d row %d: %+v want pos %d", tc.budget, strand, i, j, c, want[j]-off)
					}
				}
				if d, w := cost.LocateSteps-charged, int64(float64(tc.took[i])*(1+ix.LocateSteps())); d != w {
					t.Errorf("budget %d: strand %c: interval %d charged %d LocateSteps want %d", tc.budget, strand, i, d, w)
				}
				if st.Exhausted() != tc.exhausted[i] {
					t.Errorf("budget %d: strand %c: Exhausted() = %v after interval %d", tc.budget, strand, !tc.exhausted[i], i)
				}
				total += tc.took[i]
			}
		}
		st := &State{budget: tc.budget}
		var cost cl.Cost
		if got := len(st.Generate(gen, ref[:50], &cost)); got != total {
			t.Errorf("budget %d: Generate returned %d candidates want %d", tc.budget, got, total)
		}
	}
}
