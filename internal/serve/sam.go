package serve

// SAM emission shared by the CLI's map command and the service's job
// runner, so the two paths produce byte-identical records from the same
// mappings.

import (
	"fmt"

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
