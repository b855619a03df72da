package allpairs

import (
	"slices"
	"testing"
)

// TestDrawCoversValidPairs: a drawn set holds every pair some valid
// configuration holds, and only valid configurations; a pair no valid
// configuration holds is not owed.
func TestDrawCoversValidPairs(t *testing.T) {
	s := Space{Sizes: []int{3, 2, 2}, Valid: func(c []int) bool { return c[0] != 2 || c[1] == 0 }}
	impossible := Pair{0, 2, 1, 1}
	if missing := s.Uncovered(nil); len(missing) != 3*2+3*2+2*2-1 || slices.Contains(missing, impossible) {
		t.Fatalf("an empty set misses %v", missing)
	}
	set := s.Draw(1, []byte{2, 0, 1})
	if missing := s.Uncovered(set); len(missing) > 0 {
		t.Errorf("the drawn set misses %v", missing)
	}
	if !slices.Equal(set[0], []int{2, 0, 1}) {
		t.Errorf("the pinned configuration is not first: %v", set)
	}
	for _, c := range set {
		if !s.Valid(c) {
			t.Errorf("drew the invalid configuration %v", c)
		}
	}
}
