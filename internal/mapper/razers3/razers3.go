// Package razers3 reimplements the algorithmic core of RazerS 3 (Weese,
// Holtgrewe & Reinert, Bioinformatics 2012): a q-gram-lemma counting
// filter over a hash index with SWIFT-style diagonal binning, followed by
// Myers bit-vector verification. It is a fully sensitive all-mapper — for
// the configured (n, δ, q) every location within edit distance δ is
// reported (up to the location cap) — which is why both the paper and
// this reproduction use it as the accuracy gold standard.
package razers3

import (
	"fmt"
	"slices"

	"repro/internal/cl"
	"repro/internal/dna"
	"repro/internal/mapper"
	"repro/internal/qgram"
)

// Mapper is a RazerS3-style all-mapper bound to a reference.
type Mapper struct {
	text  dna.PackedSeq
	dev   *cl.Device
	grams *qgram.Cache // per gram length, built on demand
}

// New creates the mapper on a host device. maxQ caps the gram length
// (0 = 11, a chromosome-scale default; tests use smaller references and
// smaller q emerges automatically from the lemma bound).
func New(ref []byte, dev *cl.Device, maxQ int) (*Mapper, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("razers3: empty reference")
	}
	return &Mapper{text: dna.Pack(ref), dev: dev, grams: qgram.NewCache(ref, maxQ)}, nil
}

// Name implements mapper.Mapper.
func (m *Mapper) Name() string { return "RazerS3" }

// chooseQ picks the largest usable gram length for reads of at least
// readLen bases: the q-gram lemma threshold must stay comfortably
// positive (>= 2) for the shortest.
func (m *Mapper) chooseQ(readLen, errors int) int {
	q := m.grams.MaxQ()
	for q > 1 && threshold(readLen, errors, q) < 2 {
		q--
	}
	return q // at q = 1 degenerate but still sound
}

// threshold is the q-gram lemma's t = n+1-(δ+1)q: a read of n bases
// within δ edits of a location shares at least t q-grams with it.
func threshold(n, errors, q int) int { return n + 1 - (errors+1)*q }

// generator is the SWIFT-style counting filter (mapper.Generator): a
// diagonal is a candidate when at least the pattern's threshold of its
// q-grams hit within maxErr diagonals of it.
type generator struct {
	ix        *qgram.Index
	q, maxErr int
}

// scratch is the generator's worker-private memory.
type scratch struct{ diags []int32 }

//repute:hotpath
func (g generator) generate(st *mapper.State, pattern []byte, strand byte, cost *cl.Cost) {
	sc := st.Scratch.(*scratch)
	sc.diags = sc.diags[:0]
	// Probe every read q-gram; collect hit diagonals.
	for i := 0; i+g.q <= len(pattern); i++ {
		ps := g.ix.Positions(qgram.Hash(pattern[i : i+g.q]))
		cost.HashProbes += 1 + int64(len(ps))
		for _, p := range ps {
			sc.diags = append(sc.diags, p-int32(i))
		}
	}
	diags, t := sc.diags, threshold(len(pattern), g.maxErr, g.q)
	slices.Sort(diags)
	cost.DPCells += int64(len(diags)) // sort/merge work proxy
	// Sliding window over sorted diagonals: an alignment with
	// <= δ edits keeps >= t grams whose diagonals span <= δ.
	lo := 0
	for hi := range diags {
		for diags[hi]-diags[lo] > int32(g.maxErr) {
			lo++
		}
		if hi-lo+1 >= t {
			st.Cands = append(st.Cands, mapper.Candidate{Pos: diags[lo], Strand: strand})
		}
	}
}

// Map implements mapper.Mapper.
func (m *Mapper) Map(reads [][]byte, opt mapper.Options) (*mapper.Result, error) {
	return mapper.Run(m.dev, m.text, reads, opt, func(b *mapper.Batch) (*cl.Kernel, error) {
		q := m.chooseQ(b.ShortestRead(), b.MaxErrors)
		ix, err := m.grams.Get(q)
		if err != nil {
			return nil, err
		}
		b.Name, b.PrivateBytes = "razers3", 512
		b.NewScratch = func() any { return new(scratch) }
		b.Generate = generator{ix: ix, q: q, maxErr: b.MaxErrors}.generate
		return b.Kernel(), nil
	})
}
