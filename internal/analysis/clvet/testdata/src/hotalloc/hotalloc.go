// Testdata for the hotalloc analyzer: //repute:hotpath functions and
// their same-package transitive callees must not allocate outside
// caller-owned scratch.
package hotalloc

import (
	"fmt"
	"sort"
)

type mapper struct {
	buf   []byte
	cands []int
}

type pair struct{ a, b int }

type parseError struct{ msg string }

func (e *parseError) Error() string { return e.msg }

// Verify is a hot-path root.
//
//repute:hotpath
func (m *mapper) Verify(reads [][]byte, out []int) []int {
	// Receiver- and parameter-owned growth is the sanctioned idiom.
	m.buf = make([]byte, 64)
	m.cands = append(m.cands[:0], len(reads))
	out = append(out, len(m.buf))

	// Locals aliased from owned storage stay owned.
	scratch := m.buf
	scratch = append(scratch, 0)

	tmp := make([]int, 4) // want `hot path allocates with make outside caller-owned scratch`
	tmp = append(tmp, 1)  // want `hot path appends outside caller-owned scratch`
	_ = tmp

	seen := map[int]bool{} // want `hot path allocates a map literal`
	_ = seen

	p := &pair{a: 1} // want `hot path allocates a pointer composite literal`
	_ = p

	msg := fmt.Sprintf("%d", len(out)) // want `hot path calls fmt\.Sprintf`
	_ = msg

	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] }) // want `sort\.Slice boxes its argument`

	return helper(out)
}

// helper is not annotated but is reachable from Verify, so the same
// rules apply transitively.
func helper(out []int) []int {
	extra := make([]int, 1) // want `hot path allocates with make outside caller-owned scratch`
	return append(out, extra...)
}

// loops exercises the per-iteration escapes.
//
//repute:hotpath
func loops(reads [][]byte) int {
	total := 0
	for i := 0; i < len(reads); i++ {
		f := func() int { return i } // want `hot path allocates a closure per loop iteration`
		total += f()
	}
	for _, g := range reads {
		item := pair{a: len(g)}
		total += consume(&item) // want `address of loop-local item escapes through this call`
	}
	var hoisted pair
	for _, g := range reads {
		hoisted = pair{a: len(g)}
		total += consume(&hoisted)
	}
	return total
}

func consume(p *pair) int { return p.a }

// failure paths are exempt: errors are not hot.
//
//repute:hotpath
func validate(reads [][]byte) error {
	for i, g := range reads {
		if len(g) == 0 {
			return &parseError{msg: fmt.Sprintf("read %d empty", i)}
		}
	}
	return nil
}

// amortised documents a per-batch allocation with a justified allow.
//
//repute:hotpath
func amortised(reads [][]byte) []int {
	//repute:allow hotalloc -- output slice retained by the caller, one per batch
	res := make([]int, 0, len(reads))
	for _, g := range reads {
		res = append(res, len(g)) // want `hot path appends outside caller-owned scratch`
	}
	return res
}

// cold is not reachable from any hot root and may allocate freely.
func cold() map[string][]int {
	m := map[string][]int{}
	m["x"] = append(m["x"], 1)
	return m
}
