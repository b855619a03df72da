// Package sam reads and writes SAM-format alignments. The paper notes
// REPUTE reports position/strand/edit-distance without SAM or CIGAR
// output and leaves both to future versions — this package is that
// future version's format layer: single- and multi-contig headers,
// primary/secondary records with NM tags and optional CIGARs, MAPQ
// fields, properly-paired mate records, and a parser plus per-read
// grouping for the accuracy tooling.
package sam

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/mapper"
)

// Flag bits used here.
const (
	FlagPaired       = 0x1
	FlagProperPair   = 0x2
	FlagUnmapped     = 0x4
	FlagMateUnmapped = 0x8
	FlagReverse      = 0x10
	FlagMateReverse  = 0x20
	FlagFirstInPair  = 0x40
	FlagSecondInPair = 0x80
	FlagSecondary    = 0x100
)

// Writer emits SAM to an underlying writer.
type Writer struct {
	bw      *bufio.Writer
	refName string
	line    []byte // the record being built, reused from one to the next
}

// RefSeq names one reference sequence for the header.
type RefSeq struct {
	Name   string
	Length int
}

// NewWriter writes the header for a single-reference file and returns the
// writer.
func NewWriter(w io.Writer, refName string, refLen int) (*Writer, error) {
	return NewMultiWriter(w, []RefSeq{{Name: refName, Length: refLen}})
}

// NewMultiWriter writes a header with one @SQ line per reference sequence
// (multi-contig genomes). The first contig becomes the default RNAME for
// WriteRead; use WriteAlignments for per-record contigs.
func NewMultiWriter(w io.Writer, refs []RefSeq) (*Writer, error) {
	if len(refs) == 0 {
		return nil, fmt.Errorf("sam: no reference sequences")
	}
	sw := &Writer{bw: bufio.NewWriter(w), refName: refs[0].Name}
	if _, err := fmt.Fprintf(sw.bw, "@HD\tVN:1.6\tSO:unknown\n"); err != nil {
		return nil, err
	}
	for _, r := range refs {
		if _, err := fmt.Fprintf(sw.bw, "@SQ\tSN:%s\tLN:%d\n", r.Name, r.Length); err != nil {
			return nil, err
		}
	}
	if _, err := fmt.Fprintf(sw.bw, "@PG\tID:repute\tPN:repute\n"); err != nil {
		return nil, err
	}
	return sw, nil
}

// NewAppendWriter returns a Writer that emits alignment records without
// a header — for appending to a SAM file whose header (and a prefix of
// records) an earlier, interrupted run already wrote. defaultRef becomes
// the default RNAME for WriteRead, matching the original writer's first
// contig.
func NewAppendWriter(w io.Writer, defaultRef string) *Writer {
	return &Writer{bw: bufio.NewWriter(w), refName: defaultRef}
}

// Alignment is one fully-specified output line for WriteAlignments.
type Alignment struct {
	RName  string
	Pos    int32 // 0-based contig coordinate
	Strand byte
	Dist   uint8
	Cigar  string // empty means "*"
	// MAPQ is the mapping quality (mapper.EstimateMAPQ); writers emit it
	// verbatim, so leave 255 for "unavailable" if unknown.
	MAPQ uint8
}

// record is the variable part of one alignment line. RNEXT is "=" for a
// mate, otherwise "*" with PNEXT and TLEN 0; QUAL is always "*".
type record struct {
	name  string
	flag  int
	rname string // "" means "*"
	pos   int32  // 1-based, 0 when unmapped
	mapq  uint8
	cigar string // "" means "*"
	mate  bool
	pnext int32
	tlen  int32
	seq   []byte // empty means "*"
	nm    int    // NM:i tag, left out when negative
}

// unmapped is the record of a read with no alignment.
func unmapped(name string, seq []byte) record {
	return record{name: name, flag: FlagUnmapped, seq: seq, nm: -1}
}

// write formats one record into the writer's line buffer and hands the
// line to the buffered output.
//
//repute:hotpath
func (w *Writer) write(r record) error {
	b := w.line[:0]
	b = append(b, r.name...)
	b = strconv.AppendInt(append(b, '\t'), int64(r.flag), 10)
	b = orStar(append(b, '\t'), r.rname)
	b = strconv.AppendInt(append(b, '\t'), int64(r.pos), 10)
	b = strconv.AppendInt(append(b, '\t'), int64(r.mapq), 10)
	b = orStar(append(b, '\t'), r.cigar)
	if r.mate {
		b = append(b, "\t=\t"...)
	} else {
		b = append(b, "\t*\t"...)
	}
	b = strconv.AppendInt(b, int64(r.pnext), 10)
	b = strconv.AppendInt(append(b, '\t'), int64(r.tlen), 10)
	b = append(b, '\t')
	if len(r.seq) > 0 {
		b = append(b, r.seq...)
	} else {
		b = append(b, '*')
	}
	b = append(b, "\t*"...)
	if r.nm >= 0 {
		b = strconv.AppendInt(append(b, "\tNM:i:"...), int64(r.nm), 10)
	}
	w.line = append(b, '\n')
	_, err := w.bw.Write(w.line)
	return err
}

// orStar appends field, or "*" for an empty one.
func orStar(b []byte, field string) []byte {
	if field == "" {
		return append(b, '*')
	}
	return append(b, field...)
}

// WriteAlignments emits the read's alignment lines with explicit contig
// names (the first is primary), or an unmapped record when alns is empty.
func (w *Writer) WriteAlignments(name string, seq []byte, alns []Alignment) error {
	if len(alns) == 0 {
		return w.write(unmapped(name, seq))
	}
	for i, a := range alns {
		r := record{name: name, rname: a.RName, pos: a.Pos + 1, mapq: a.MAPQ,
			cigar: a.Cigar, seq: seq, nm: int(a.Dist)}
		if a.Strand == mapper.Reverse {
			r.flag |= FlagReverse
		}
		if i > 0 {
			r.flag |= FlagSecondary
			r.seq = nil // secondary records omit the sequence
		}
		if err := w.write(r); err != nil {
			return err
		}
	}
	return nil
}

// WriteRead emits all mappings of one read (first as primary, rest as
// secondary), or an unmapped record when ms is empty. seq is the ASCII
// sequence (may be empty to write '*').
func (w *Writer) WriteRead(name string, seq []byte, ms []mapper.Mapping) error {
	return w.WriteReadCigars(name, seq, ms, nil)
}

// WriteReadCigars is WriteRead with per-mapping CIGAR strings (use
// align.Cigar.String() or any SAM-valid value). cigars may be nil or
// shorter than ms; missing entries are written as "*".
func (w *Writer) WriteReadCigars(name string, seq []byte, ms []mapper.Mapping, cigars []string) error {
	if len(ms) == 0 {
		return w.write(unmapped(name, seq))
	}
	for i, m := range ms {
		r := record{name: name, rname: w.refName, pos: m.Pos + 1, mapq: 255, seq: seq, nm: int(m.Dist)}
		if m.Strand == mapper.Reverse {
			r.flag |= FlagReverse
		}
		if i > 0 {
			r.flag |= FlagSecondary
			r.seq = nil // secondary records omit the sequence
		}
		if i < len(cigars) {
			r.cigar = cigars[i]
		}
		if err := w.write(r); err != nil {
			return err
		}
	}
	return nil
}

// WritePair emits one concordant pair as two properly-paired records with
// mate fields (RNEXT "=", PNEXT, signed TLEN). seq1/seq2 may be nil.
func (w *Writer) WritePair(name string, seq1, seq2 []byte, p mapper.Pair, rname string) error {
	if rname == "" {
		rname = w.refName
	}
	write := func(self, mate mapper.Mapping, selfFirst bool, seq []byte, tlen int32) error {
		flag := FlagPaired | FlagProperPair
		if self.Strand == mapper.Reverse {
			flag |= FlagReverse
		}
		if mate.Strand == mapper.Reverse {
			flag |= FlagMateReverse
		}
		if selfFirst {
			flag |= FlagFirstInPair
		} else {
			flag |= FlagSecondInPair
		}
		return w.write(record{name: name, flag: flag, rname: rname, pos: self.Pos + 1, mapq: 255,
			mate: true, pnext: mate.Pos + 1, tlen: tlen, seq: seq, nm: int(self.Dist)})
	}
	// TLEN sign convention: positive for the leftmost mate.
	t1, t2 := p.Insert, -p.Insert
	if p.First.Pos > p.Second.Pos {
		t1, t2 = -p.Insert, p.Insert
	}
	if err := write(p.First, p.Second, true, seq1, t1); err != nil {
		return err
	}
	return write(p.Second, p.First, false, seq2, t2)
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Record is a parsed alignment line (header lines are skipped).
type Record struct {
	Name   string
	Flag   int
	RefPos int32 // 0-based; -1 for unmapped
	Dist   int   // NM tag, -1 if absent
}

// Strand derives the strand byte from the flags.
func (r Record) Strand() byte {
	if r.Flag&FlagReverse != 0 {
		return mapper.Reverse
	}
	return mapper.Forward
}

// Unmapped reports the unmapped flag.
func (r Record) Unmapped() bool { return r.Flag&FlagUnmapped != 0 }

// GroupByRead converts parsed records into per-read mapping lists keyed
// by read name, in the form internal/eval consumes. Unmapped records
// yield an empty (but present) entry; mapping lists come out sorted the
// way mapper.Finalize emits them.
func GroupByRead(recs []Record) map[string][]mapper.Mapping {
	out := make(map[string][]mapper.Mapping)
	for _, r := range recs {
		if _, ok := out[r.Name]; !ok {
			out[r.Name] = nil
		}
		if r.Unmapped() {
			continue
		}
		dist := r.Dist
		if dist < 0 {
			dist = 0
		}
		out[r.Name] = append(out[r.Name], mapper.Mapping{
			Pos:    r.RefPos,
			Strand: r.Strand(),
			Dist:   uint8(dist),
		})
	}
	for name, ms := range out {
		out[name] = mapper.Finalize(ms, false, 0)
	}
	return out
}

// Parse reads alignment records from SAM text, skipping headers.
func Parse(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var recs []Record
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "@") {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) < 11 {
			return nil, fmt.Errorf("sam: line %d: %d fields, want >= 11", lineNo, len(fields))
		}
		flag, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("sam: line %d: bad flag %q", lineNo, fields[1])
		}
		pos, err := strconv.Atoi(fields[3])
		if err != nil {
			return nil, fmt.Errorf("sam: line %d: bad pos %q", lineNo, fields[3])
		}
		rec := Record{Name: fields[0], Flag: flag, RefPos: int32(pos) - 1, Dist: -1}
		if flag&FlagUnmapped != 0 {
			rec.RefPos = -1
		}
		for _, tag := range fields[11:] {
			if strings.HasPrefix(tag, "NM:i:") {
				if v, err := strconv.Atoi(tag[5:]); err == nil {
					rec.Dist = v
				}
			}
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}
