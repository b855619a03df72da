// Package hobbes3 reimplements the core of Hobbes3 (Kim, Li & Xie, 2016):
// pigeonhole filtration with δ+1 *variable-position* fixed-length q-gram
// signatures, chosen by a dynamic program that minimises the summed index
// frequency of the signatures — the hash-index cousin of the paper's DP
// filtration. Candidates are the union of the chosen signatures' hits,
// verified with the Myers bit-vector. It is a fully sensitive all-mapper.
package hobbes3

import (
	"fmt"

	"repro/internal/cl"
	"repro/internal/dna"
	"repro/internal/mapper"
	"repro/internal/qgram"
)

// Mapper is a Hobbes3-style all-mapper bound to a reference.
type Mapper struct {
	text  dna.PackedSeq
	dev   *cl.Device
	grams *qgram.Cache
}

// New creates the mapper on a host device. maxQ caps gram length (0 = 11).
func New(ref []byte, dev *cl.Device, maxQ int) (*Mapper, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("hobbes3: empty reference")
	}
	return &Mapper{text: dna.Pack(ref), dev: dev, grams: qgram.NewCache(ref, maxQ)}, nil
}

// Name implements mapper.Mapper.
func (m *Mapper) Name() string { return "Hobbes3" }

// chooseQ picks the signature length: δ+1 disjoint signatures must fit,
// and the gram stays two steps below the RazerS3-style maximum — Hobbes3
// trades gram selectivity for its cheap signature DP, so its candidate
// lists run longer than a DP-placed long seed's (the REPUTE gap at low δ).
func (m *Mapper) chooseQ(readLen, errors int) int {
	return max(min(readLen/(errors+1), m.grams.MaxQ()-2), 1)
}

// scratch is the generator's worker-private memory: the gram
// frequencies, the signature DP's k × (n+1) tables (row-major) and the
// chosen positions.
type scratch struct {
	freqs  []int32
	best   []int64
	choice []int32
	pos    []int
}

// selectSignatures runs the Hobbes DP: choose k = errors+1 positions
// p_1 < p_2 < ... with p_{j+1} >= p_j + q minimising total frequency.
// freqs[i] is the index frequency of the gram starting at i.
// It returns the chosen positions (in sc) and the DP cell count.
func selectSignatures(sc *scratch, freqs []int32, k, q int) ([]int, int) {
	n := len(freqs) // number of gram start positions
	const inf = int64(1) << 62
	// best[j*w+i]: min cost choosing j+1 signatures from grams [i:]. The
	// fill below writes every cell before reading it, so reused tables
	// need no clearing.
	w := n + 1
	if cap(sc.best) < k*w {
		sc.best = make([]int64, k*w)
		sc.choice = make([]int32, k*w)
	}
	best, choice := sc.best[:k*w], sc.choice[:k*w]
	cells := 0
	for j := 0; j < k; j++ {
		for i := n; i >= 0; i-- {
			cells++
			b, c := inf, int32(-1)
			if i < n {
				// Option: skip position i.
				b, c = best[j*w+i+1], choice[j*w+i+1]
				// Option: place signature j at i.
				var rest int64
				if j == 0 {
					rest = 0
				} else if i+q <= n {
					rest = best[(j-1)*w+i+q]
				} else {
					rest = inf
				}
				if rest < inf {
					if v := int64(freqs[i]) + rest; v < b {
						b, c = v, int32(i)
					}
				}
			}
			best[j*w+i], choice[j*w+i] = b, c
		}
	}
	if best[(k-1)*w] >= inf {
		return nil, cells
	}
	// Recover positions: choice[j*w+i] is where the first of the j+1
	// remaining signatures lands in the optimum for state (j, i).
	sc.pos = sc.pos[:0]
	i := 0
	for j := k - 1; j >= 0; j-- {
		p := int(choice[j*w+i])
		if p < i {
			return nil, cells // infeasible state; cannot happen when best is finite
		}
		sc.pos = append(sc.pos, p)
		i = p + q
	}
	return sc.pos, cells
}

// generator is the signature filter (mapper.Generator): the hits of the
// k least frequent non-overlapping q-grams of the strand.
type generator struct {
	ix   *qgram.Index
	q, k int
}

//repute:hotpath
func (g generator) generate(st *mapper.State, pattern []byte, strand byte, cost *cl.Cost) {
	sc := st.Scratch.(*scratch)
	nGrams := len(pattern) - g.q + 1
	if cap(sc.freqs) < nGrams {
		sc.freqs = make([]int32, nGrams)
	}
	sc.freqs = sc.freqs[:nGrams]
	for i := range sc.freqs {
		sc.freqs[i] = int32(g.ix.Count(qgram.Hash(pattern[i : i+g.q])))
	}
	cost.HashProbes += int64(nGrams)
	sigs, cells := selectSignatures(sc, sc.freqs, g.k, g.q)
	cost.DPCells += int64(cells)
	for _, p := range sigs {
		hits := g.ix.Positions(qgram.Hash(pattern[p : p+g.q]))
		cost.HashProbes += 1 + int64(len(hits))
		for _, hp := range hits {
			st.Cands = append(st.Cands, mapper.Candidate{Pos: hp - int32(p), Strand: strand})
		}
	}
}

// Map implements mapper.Mapper.
func (m *Mapper) Map(reads [][]byte, opt mapper.Options) (*mapper.Result, error) {
	return mapper.Run(m.dev, m.text, reads, opt, func(b *mapper.Batch) (*cl.Kernel, error) {
		// Each read is filtered with the signature length its own length
		// allows, so a read maps in any batch as it does alone.
		gens := make([]generator, m.grams.MaxQ()+1)
		for _, r := range b.Reads {
			if q := m.chooseQ(len(r), b.MaxErrors); gens[q].ix == nil {
				ix, err := m.grams.Get(q)
				if err != nil {
					return nil, err
				}
				gens[q] = generator{ix: ix, q: q, k: b.MaxErrors + 1}
			}
		}
		b.Name, b.PrivateBytes = "hobbes3", 1024
		b.NewScratch = func() any { return new(scratch) }
		b.Generate = func(st *mapper.State, pattern []byte, strand byte, cost *cl.Cost) {
			gens[m.chooseQ(len(pattern), b.MaxErrors)].generate(st, pattern, strand, cost)
		}
		return b.Kernel(), nil
	})
}
