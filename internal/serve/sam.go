package serve

// SAM emission shared by the CLI's map command and the service's job
// runner, so the two paths produce byte-identical records from the same
// mappings.

import (
	"fmt"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/genome"
	"repro/internal/mapper"
	"repro/internal/sam"
)

// WriteReadAlignments emits one read's SAM record(s), translating
// global mapping positions to per-contig coordinates and dropping
// alignments that span a contig boundary (reported via the dropped
// count). With cigar set it recovers the CIGAR string through the
// pipeline's traceback kernel.
func WriteReadAlignments(sw *sam.Writer, g *genome.Genome, p *core.Pipeline,
	name string, read []byte, ms []mapper.Mapping, cigar bool, maxErrors int) (int, error) {
	dropped := 0
	// Both scratch slices start on the stack, so a read of ordinary length
	// with a handful of alignments is written without a heap allocation.
	var alnBuf [8]sam.Alignment
	var seqBuf [256]byte
	alns, seq := alnBuf[:0], seqBuf[:0]
	for _, m := range ms {
		if g.SpansBoundary(int(m.Pos), len(read)) {
			dropped++
			continue
		}
		contig, off, err := g.Locate(int(m.Pos))
		if err != nil {
			return dropped, err
		}
		aln := sam.Alignment{
			RName:  contig.Name,
			Pos:    int32(off),
			Strand: m.Strand,
			Dist:   m.Dist,
		}
		if len(alns) == 0 {
			aln.MAPQ = mapper.EstimateMAPQ(ms)
		}
		if cigar {
			c, err := p.CigarFor(read, m, maxErrors)
			if err != nil {
				return dropped, fmt.Errorf("read %s: %w", name, err)
			}
			aln.Cigar = c.String()
		}
		alns = append(alns, aln)
	}
	for _, c := range read {
		seq = append(seq, dna.ASCIIOf(c))
	}
	if err := sw.WriteAlignments(name, seq, alns); err != nil {
		return dropped, err
	}
	return dropped, nil
}

// writeBatch emits a batch's SAM records, adding to st's Dropped and
// Concordant tallies. A single-end read gets its own records. In a
// paired run, whose batches hold each fragment's mates side by side, a
// fragment gets its best concordant pair with both mates in one contig
// as two properly-paired records, else each mate's own records under
// NAME/1 and NAME/2.
func (s Stream) writeBatch(sw *sam.Writer, b core.StreamBatch, ms [][]mapper.Mapping, st *checkpoint.State) error {
	step := 1
	if s.Reads2Path != "" {
		step = 2
	}
	band, maxPairs := s.Pair.WithDefaults(), s.Opt.WithDefaults().MaxLocations
	for i := 0; i < len(b.Reads); i += step {
		names := b.Names[i : i+step]
		if step == 2 {
			name := strings.TrimSuffix(b.Names[i], "/1")
			pairs := mapper.PairUp(ms[i], ms[i+1], len(b.Reads[i]), len(b.Reads[i+1]),
				band.MinInsert, band.MaxInsert, maxPairs)
			wrote, err := s.writePair(sw, name, b.Reads[i:i+2], pairs)
			if err != nil {
				return err
			}
			if wrote {
				st.Concordant++
				continue
			}
			names = []string{name + "/1", name + "/2"}
		}
		for m, name := range names {
			dropped, err := WriteReadAlignments(sw, s.Genome, s.Pipeline, name, b.Reads[i+m],
				ms[i+m], s.Cigar, s.Opt.MaxErrors)
			if err != nil {
				return err
			}
			st.Dropped += dropped
		}
	}
	return nil
}

// writePair writes the first of pairs whose mates both lie inside one
// contig, reporting whether there was one.
func (s Stream) writePair(sw *sam.Writer, name string, mates [][]byte, pairs []mapper.Pair) (bool, error) {
	g := s.Genome
	for _, pr := range pairs {
		if g.SpansBoundary(int(pr.First.Pos), len(mates[0])) || g.SpansBoundary(int(pr.Second.Pos), len(mates[1])) {
			continue
		}
		c1, off1, err := g.Locate(int(pr.First.Pos))
		if err != nil {
			return false, err
		}
		c2, off2, err := g.Locate(int(pr.Second.Pos))
		if err != nil {
			return false, err
		}
		if c1.Name != c2.Name {
			continue
		}
		var cigars [2]string
		for m, mp := range [2]mapper.Mapping{pr.First, pr.Second} {
			if !s.Cigar {
				break
			}
			c, err := s.Pipeline.CigarFor(mates[m], mp, s.Opt.MaxErrors)
			if err != nil {
				return false, fmt.Errorf("read %s/%d: %w", name, m+1, err)
			}
			cigars[m] = c.String()
		}
		local := pr
		local.First.Pos, local.Second.Pos = int32(off1), int32(off2)
		return true, sw.WritePair(name, []byte(dna.Decode(mates[0])), []byte(dna.Decode(mates[1])),
			local, c1.Name, cigars[0], cigars[1])
	}
	return false, nil
}
