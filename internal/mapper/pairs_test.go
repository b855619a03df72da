package mapper

import (
	"testing"
	"testing/quick"
)

func fm(pos int32, strand byte, dist uint8) Mapping {
	return Mapping{Pos: pos, Strand: strand, Dist: dist}
}

func TestPairUpConcordantFR(t *testing.T) {
	// Mate1 '+' at 1000, mate2 '-' at 1300 (len 100): insert 400.
	ms1 := []Mapping{fm(1000, Forward, 1)}
	ms2 := []Mapping{fm(1300, Reverse, 0)}
	pairs := PairUp(ms1, ms2, 100, 100, 200, 600, 0)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %+v", pairs)
	}
	p := pairs[0]
	if !p.Concordant || p.Insert != 400 || p.TotalDist() != 1 {
		t.Errorf("pair = %+v", p)
	}
}

func TestPairUpReversedRoles(t *testing.T) {
	// Mate1 is the reverse mate: '-' at 1300; mate2 '+' at 1000.
	ms1 := []Mapping{fm(1300, Reverse, 0)}
	ms2 := []Mapping{fm(1000, Forward, 2)}
	pairs := PairUp(ms1, ms2, 100, 100, 200, 600, 0)
	if len(pairs) != 1 || pairs[0].Insert != 400 {
		t.Fatalf("pairs = %+v", pairs)
	}
}

func TestPairUpRejects(t *testing.T) {
	cases := []struct {
		name     string
		ms1, ms2 []Mapping
	}{
		{"same strand", []Mapping{fm(1000, Forward, 0)}, []Mapping{fm(1300, Forward, 0)}},
		{"insert too big", []Mapping{fm(1000, Forward, 0)}, []Mapping{fm(5000, Reverse, 0)}},
		{"insert too small", []Mapping{fm(1000, Forward, 0)}, []Mapping{fm(1010, Reverse, 0)}},
		{"wrong order (RF)", []Mapping{fm(1300, Forward, 0)}, []Mapping{fm(1000, Reverse, 0)}},
		{"no mate2", []Mapping{fm(1000, Forward, 0)}, nil},
	}
	for _, tc := range cases {
		if pairs := PairUp(tc.ms1, tc.ms2, 100, 100, 200, 600, 0); len(pairs) != 0 {
			t.Errorf("%s: unexpectedly paired %+v", tc.name, pairs)
		}
	}
}

func TestPairUpRescuesAmbiguousMate(t *testing.T) {
	// Mate1 multi-maps to 5 repeat copies; mate2 maps uniquely. Only the
	// copy compatible with mate2's position pairs.
	ms1 := []Mapping{
		fm(100, Forward, 1), fm(2100, Forward, 1), fm(4100, Forward, 1),
		fm(6100, Forward, 1), fm(8100, Forward, 1),
	}
	ms2 := []Mapping{fm(4400, Reverse, 0)}
	pairs := PairUp(ms1, ms2, 100, 100, 200, 600, 0)
	if len(pairs) != 1 || pairs[0].First.Pos != 4100 {
		t.Fatalf("rescue failed: %+v", pairs)
	}
}

func TestPairUpRankingAndCap(t *testing.T) {
	ms1 := []Mapping{fm(1000, Forward, 3), fm(2000, Forward, 0)}
	ms2 := []Mapping{fm(1300, Reverse, 0), fm(2300, Reverse, 1)}
	pairs := PairUp(ms1, ms2, 100, 100, 200, 600, 0)
	if len(pairs) != 2 {
		t.Fatalf("pairs = %+v", pairs)
	}
	// Best combined distance first: (2000,2300) dist 1 before (1000,1300) dist 3.
	if pairs[0].First.Pos != 2000 || pairs[1].First.Pos != 1000 {
		t.Errorf("ranking wrong: %+v", pairs)
	}
	capped := PairUp(ms1, ms2, 100, 100, 200, 600, 1)
	if len(capped) != 1 || capped[0].First.Pos != 2000 {
		t.Errorf("cap kept wrong pair: %+v", capped)
	}
}

func TestPairUpPropertyInsertBand(t *testing.T) {
	f := func(raw1, raw2 []byte) bool {
		ms1 := Finalize(genMappings(raw1), false, 0)
		ms2 := Finalize(genMappings(raw2), false, 0)
		const minI, maxI = 150, 450
		pairs := PairUp(ms1, ms2, 100, 100, minI, maxI, 0)
		for _, p := range pairs {
			if p.Insert < minI || p.Insert > maxI {
				return false
			}
			if p.First.Strand == p.Second.Strand {
				return false
			}
			// Leftmost mate must be the forward one.
			left, right := p.First, p.Second
			if right.Pos < left.Pos {
				left, right = right, left
			}
			if left.Strand != Forward || right.Strand != Reverse {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPairOptionsDefaults(t *testing.T) {
	o := PairOptions{}.WithDefaults()
	if o.MinInsert != 100 || o.MaxInsert != 1000 || o.MaxLocations != 1000 {
		t.Errorf("defaults = %+v", o)
	}
}
