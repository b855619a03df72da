// Package allpairs draws the configuration sets of the equivalence
// harnesses (DESIGN.md §15): sets in which every pair of values of two
// axes appears in at least one configuration, so a fault that needs two
// settings at once is reached without running the whole cross-product.
package allpairs

import (
	"math/rand"
	"slices"
)

// Space is the axes of a configuration, and which configurations can run.
type Space struct {
	// Sizes is the number of values of each axis.
	Sizes []int
	// Valid, when set, reports whether a configuration can run. A pair
	// that no valid configuration holds need not be covered, and Draw
	// keeps only valid configurations.
	Valid func(c []int) bool
}

// Pair is axis I at value A together with axis J at value B.
type Pair struct{ I, A, J, B int }

// Decode is the one decoder of configurations, shared by a drawn set and
// a fuzz target: byte i picks axis i's value, and a missing byte picks 0.
func (s Space) Decode(b []byte) []int {
	c := make([]int, len(s.Sizes))
	for i := range c {
		if i < len(b) {
			c[i] = int(b[i]) % s.Sizes[i]
		}
	}
	return c
}

// Uncovered lists, in axis order, the pairs a valid configuration can
// hold and no configuration of set does.
func (s Space) Uncovered(set [][]int) []Pair { return uncovered(s.pairs(), set) }

func uncovered(pairs []Pair, set [][]int) []Pair {
	var out []Pair
	for _, p := range pairs {
		if !holds(set, p) {
			out = append(out, p)
		}
	}
	return out
}

func holds(set [][]int, p Pair) bool {
	return slices.ContainsFunc(set, func(c []int) bool { return c[p.I] == p.A && c[p.J] == p.B })
}

// pairs lists, in axis order, the pairs a valid configuration can hold:
// all of them when Valid is unset, else those a configuration of the
// whole cross-product that Valid accepts holds.
func (s Space) pairs() []Pair {
	var valid [][]int
	if s.Valid != nil {
		for c := make([]int, len(s.Sizes)); c != nil; c = s.next(c) {
			if s.Valid(c) {
				valid = append(valid, slices.Clone(c))
			}
		}
	}
	var out []Pair
	for i := range s.Sizes {
		for j := i + 1; j < len(s.Sizes); j++ {
			for a := 0; a < s.Sizes[i]; a++ {
				for b := 0; b < s.Sizes[j]; b++ {
					if p := (Pair{i, a, j, b}); s.Valid == nil || holds(valid, p) {
						out = append(out, p)
					}
				}
			}
		}
	}
	return out
}

// next steps c to the following configuration of the cross-product, axis
// 0 fastest, and returns nil after the last.
func (s Space) next(c []int) []int {
	for i := range c {
		if c[i]++; c[i] < s.Sizes[i] {
			return c
		}
		c[i] = 0
	}
	return nil
}

// Draw returns the decoded pinned configurations followed by draws until
// every coverable pair is in one: each step pins the first uncovered pair
// in 30 seeded random draws, valid ones only, and keeps the draw that
// leaves the fewest pairs uncovered.
func (s Space) Draw(seed int64, pinned ...[]byte) [][]int {
	rng, pairs := rand.New(rand.NewSource(seed)), s.pairs()
	var set [][]int
	for _, b := range pinned {
		set = append(set, s.Decode(b))
	}
	for missing := uncovered(pairs, set); len(missing) > 0; missing = uncovered(pairs, set) {
		p, best, left := missing[0], []int(nil), len(missing)
		// A pair that only few completions make valid may take more than
		// 30 draws to hold once.
		for k := 0; k < 30 || best == nil; k++ {
			b := make([]byte, len(s.Sizes))
			rng.Read(b)
			c := s.Decode(b)
			c[p.I], c[p.J] = p.A, p.B
			if s.Valid != nil && !s.Valid(c) {
				continue
			}
			if n := len(uncovered(pairs, append(slices.Clip(set), c))); n < left {
				best, left = c, n
			}
		}
		set = append(set, best)
	}
	return set
}
