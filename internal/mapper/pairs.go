package mapper

import (
	"sort"

	"repro/internal/cl"
)

// Paired-end support. The paper maps the "_1" mates of paired NCBI runs
// as single-end reads; a release-quality mapper must also pair mates.
// The model is the standard Illumina FR library: mates come from opposite
// strands of one fragment, the leftmost mate on '+', with the fragment
// (insert) length in a known band.

// Pair is one reported mate pairing. First/Second are mappings of the
// respective mates; Insert is the outer fragment length; Concordant
// reports FR orientation within the insert band.
type Pair struct {
	First, Second Mapping
	Insert        int32
	Concordant    bool
}

// TotalDist is the pair's combined edit distance (pair ranking key).
func (p Pair) TotalDist() int { return int(p.First.Dist) + int(p.Second.Dist) }

// PairUp combines per-mate mapping lists into concordant pairs: one mate
// on '+', the other on '-', leftmost-on-plus, insert within
// [minInsert, maxInsert]. Results are sorted by combined distance then
// position and capped at maxPairs (0 = no cap). Mapping lists must be
// position-sorted, as Finalize emits.
func PairUp(ms1, ms2 []Mapping, len1, len2 int, minInsert, maxInsert int32, maxPairs int) []Pair {
	var out []Pair
	// Split the second mate's mappings by strand for binary search.
	var fwd2, rev2 []Mapping
	for _, m := range ms2 {
		if m.Strand == Forward {
			fwd2 = append(fwd2, m)
		} else {
			rev2 = append(rev2, m)
		}
	}
	// Case A: mate1 on '+', mate2 on '-' to its right.
	for _, m1 := range ms1 {
		if m1.Strand != Forward {
			continue
		}
		lo := m1.Pos + minInsert - int32(len2)
		hi := m1.Pos + maxInsert - int32(len2)
		for _, m2 := range sliceRange(rev2, lo, hi) {
			insert := m2.Pos + int32(len2) - m1.Pos
			if insert < minInsert || insert > maxInsert {
				continue
			}
			out = append(out, Pair{First: m1, Second: m2, Insert: insert, Concordant: true})
		}
	}
	// Case B: mate2 on '+', mate1 on '-' to its right.
	for _, m1 := range ms1 {
		if m1.Strand != Reverse {
			continue
		}
		lo := m1.Pos + int32(len1) - maxInsert
		hi := m1.Pos + int32(len1) - minInsert
		for _, m2 := range sliceRange(fwd2, lo, hi) {
			insert := m1.Pos + int32(len1) - m2.Pos
			if insert < minInsert || insert > maxInsert {
				continue
			}
			out = append(out, Pair{First: m1, Second: m2, Insert: insert, Concordant: true})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if d1, d2 := out[i].TotalDist(), out[j].TotalDist(); d1 != d2 {
			return d1 < d2
		}
		if out[i].First.Pos != out[j].First.Pos {
			return out[i].First.Pos < out[j].First.Pos
		}
		return out[i].Second.Pos < out[j].Second.Pos
	})
	if maxPairs > 0 && len(out) > maxPairs {
		out = out[:maxPairs]
	}
	return out
}

// sliceRange returns the mappings with Pos in [lo, hi] from a
// position-sorted slice.
func sliceRange(ms []Mapping, lo, hi int32) []Mapping {
	i := sort.Search(len(ms), func(i int) bool { return ms[i].Pos >= lo })
	j := sort.Search(len(ms), func(i int) bool { return ms[i].Pos > hi })
	return ms[i:j]
}

// PairOptions configure paired mapping.
type PairOptions struct {
	Options
	// MinInsert/MaxInsert bound the accepted fragment length.
	MinInsert, MaxInsert int32
}

// WithDefaults fills unset fields (insert band defaults to 100..1000).
func (o PairOptions) WithDefaults() PairOptions {
	o.Options = o.Options.WithDefaults()
	if o.MaxInsert == 0 {
		o.MaxInsert = 1000
	}
	if o.MinInsert == 0 {
		o.MinInsert = 100
	}
	return o
}

// PairResult is the outcome of mapping a paired read set.
type PairResult struct {
	// Pairs[i] are fragment i's concordant pairs (may be empty).
	Pairs [][]Pair
	// Single1/Single2 hold the per-mate single-end mappings, for
	// fragments whose mates must be reported individually.
	Single1, Single2 [][]Mapping
	SimSeconds       float64
	EnergyJ          float64
	Cost             cl.Cost
	// Faults accumulates both mates' recovery accounting.
	Faults FaultStats
}
