// Package genome handles multi-contig references: real genomes are sets
// of named sequences (chromosomes, scaffolds), while the index and the
// mappers work over one concatenated text. Genome tracks the contig
// boundaries, converts between global and per-contig coordinates, and
// rejects alignments that would straddle two contigs — exactly what a
// downstream user needs to run this mapper on something other than the
// paper's single chromosome 21.
package genome

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/fastx"
)

// Contig is one named sequence in the reference.
type Contig struct {
	Name   string
	Offset int // start in the concatenated text
	Length int
}

// Genome is an immutable set of contigs over one concatenated text. A
// coordinate-only genome (FromContigs) has textLen set but no text: all
// coordinate conversions work, Text returns nil.
type Genome struct {
	contigs []Contig
	text    []byte // concatenated base codes (nil when coordinate-only)
	textLen int    // total length, valid even without text
}

// New builds a genome from named sequences of base codes. Contig order is
// preserved; names must be unique and sequences non-empty.
func New(names []string, seqs [][]byte) (*Genome, error) {
	if len(names) != len(seqs) {
		return nil, fmt.Errorf("genome: %d names for %d sequences", len(names), len(seqs))
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("genome: no contigs")
	}
	g := &Genome{}
	seen := map[string]bool{}
	offset := 0
	for i, name := range names {
		if name == "" {
			return nil, fmt.Errorf("genome: contig %d has an empty name", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("genome: duplicate contig name %q", name)
		}
		seen[name] = true
		if len(seqs[i]) == 0 {
			return nil, fmt.Errorf("genome: contig %q is empty", name)
		}
		g.contigs = append(g.contigs, Contig{Name: name, Offset: offset, Length: len(seqs[i])})
		g.text = append(g.text, seqs[i]...)
		offset += len(seqs[i])
	}
	g.textLen = len(g.text)
	return g, nil
}

// FromFasta loads a genome from FASTA records, converting ambiguous bases
// with rng (nil rejects them), mirroring index-building practice.
func FromFasta(recs []fastx.Record, rng *rand.Rand) (*Genome, error) {
	names := make([]string, len(recs))
	seqs := make([][]byte, len(recs))
	for i, rec := range recs {
		names[i] = rec.Name
		codes, err := fastx.CodesOf(rec, rng)
		if err != nil {
			return nil, err
		}
		seqs[i] = codes
	}
	return New(names, seqs)
}

// Text returns the concatenated base codes (shared, do not modify); this
// is what gets indexed.
func (g *Genome) Text() []byte { return g.text }

// Len returns the total concatenated length.
func (g *Genome) Len() int { return g.textLen }

// Contigs returns the contig table in order.
func (g *Genome) Contigs() []Contig { return g.contigs }

// Locate converts a global position into (contig, offset within contig).
func (g *Genome) Locate(pos int) (Contig, int, error) {
	if pos < 0 || pos >= g.textLen {
		return Contig{}, 0, fmt.Errorf("genome: position %d out of range 0..%d", pos, g.textLen-1)
	}
	// Binary search for the last contig with Offset <= pos.
	i := sort.Search(len(g.contigs), func(i int) bool {
		return g.contigs[i].Offset > pos
	}) - 1
	c := g.contigs[i]
	return c, pos - c.Offset, nil
}

// Global converts (contig name, offset) back to a global position.
func (g *Genome) Global(name string, off int) (int, error) {
	for _, c := range g.contigs {
		if c.Name == name {
			if off < 0 || off >= c.Length {
				return 0, fmt.Errorf("genome: offset %d outside contig %q (len %d)", off, name, c.Length)
			}
			return c.Offset + off, nil
		}
	}
	return 0, fmt.Errorf("genome: unknown contig %q", name)
}

// FromContigs builds a coordinate-only genome from a validated contig
// table: Locate, Global and SpansBoundary work, Text returns nil. Used
// when the reference text lives elsewhere (e.g. sharded index artifacts
// hold per-slice texts and only the contig table travels in the meta).
func FromContigs(contigs []Contig) (*Genome, error) {
	if len(contigs) == 0 {
		return nil, fmt.Errorf("genome: no contigs")
	}
	total := 0
	for _, c := range contigs {
		if c.Offset != total || c.Length <= 0 {
			return nil, fmt.Errorf("genome: contig %q has inconsistent layout", c.Name)
		}
		total += c.Length
	}
	return &Genome{contigs: contigs, textLen: total}, nil
}

// SpansBoundary reports whether the interval [pos, pos+length) crosses a
// contig boundary — such alignments are artefacts of concatenation and
// must be discarded by callers.
func (g *Genome) SpansBoundary(pos, length int) bool {
	if pos < 0 || pos+length > g.textLen {
		return true
	}
	c, off, err := g.Locate(pos)
	if err != nil {
		return true
	}
	return off+length > c.Length
}
