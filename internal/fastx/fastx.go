// Package fastx reads and writes FASTA and FASTQ files, the interchange
// formats for references and read sets. One parser, the streaming
// Scanner, reads both the reference the index is built from and the
// reads mapped against it. Sequences are kept as ASCII in records; one
// Codec converts them to base codes with the usual mapper policy of
// replacing ambiguous bases (N etc.) with deterministic pseudo-random
// bases, as real read mappers do when building indexes.
package fastx

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// Record is one FASTA/FASTQ entry. Qual is nil for FASTA records.
type Record struct {
	Name string
	Seq  []byte // ASCII bases
	Qual []byte // ASCII Phred+33, nil for FASTA
}

// appendSeq appends a FASTA sequence line to dst, dropping interior
// blanks: a space or tab inside a sequence line is layout, not
// sequence — kept, it would be miscoded as a base downstream and
// could not survive a write/re-read round-trip across line wraps.
func appendSeq(dst, line []byte) []byte {
	if bytes.IndexByte(line, ' ') < 0 && bytes.IndexByte(line, '\t') < 0 {
		return append(dst, line...)
	}
	for _, c := range line {
		if c != ' ' && c != '\t' {
			dst = append(dst, c)
		}
	}
	return dst
}

// WriteFasta writes records wrapping sequence lines at width columns
// (width <= 0 means no wrapping).
func WriteFasta(w io.Writer, recs []Record, width int) error {
	bw := bufio.NewWriter(w)
	for _, rec := range recs {
		if _, err := fmt.Fprintf(bw, ">%s\n", rec.Name); err != nil {
			return err
		}
		seq := rec.Seq
		if width <= 0 {
			width = len(seq)
		}
		for len(seq) > 0 {
			n := width
			if n > len(seq) {
				n = len(seq)
			}
			bw.Write(seq[:n])
			bw.WriteByte('\n')
			seq = seq[n:]
		}
	}
	return bw.Flush()
}

// WriteFastq writes records in four-line FASTQ form. Records without
// qualities get a constant high quality string.
func WriteFastq(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	for _, rec := range recs {
		qual := rec.Qual
		if qual == nil {
			qual = bytes.Repeat([]byte{'I'}, len(rec.Seq))
		}
		if _, err := fmt.Fprintf(bw, "@%s\n%s\n+\n%s\n", rec.Name, rec.Seq, qual); err != nil {
			return err
		}
	}
	return bw.Flush()
}
