package fastx

// Batch oracles for the Scanner and the Codec. The product has one
// parser per input (the streaming Scanner) and one ambiguity policy (the
// Codec); these are the independent bufio-based whole-file parsers and
// the plain seed-RNG converter they replaced, kept here so the fuzz
// targets and TestScannerMatchesBatchParsers / TestCodecMatchesCodesOf
// cross-validate two implementations: a parsing bug has to strike both
// to go unnoticed.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/dna"
)

// ReadFasta parses all records from r.
func ReadFasta(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var recs []Record
	var cur *Record
	line := 0
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		if b[0] == '>' {
			recs = append(recs, Record{Name: string(bytes.TrimSpace(b[1:]))})
			cur = &recs[len(recs)-1]
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("fastx: line %d: sequence before first header", line)
		}
		if bytes.IndexByte(b, '>') >= 0 {
			// A '>' after the first column is a mangled header, and a
			// sequence containing one could not round-trip: wrapping
			// may put it at a line start, where it reads as a header.
			return nil, fmt.Errorf("fastx: line %d: stray '>' inside sequence line", line)
		}
		cur.Seq = appendSeq(cur.Seq, b)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fastx: %w", err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("fastx: no FASTA records found")
	}
	return recs, nil
}

// ReadFastq parses all records from r. Each record must be the standard
// four lines: @name, sequence, +, quality.
func ReadFastq(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var recs []Record
	line := 0
	next := func() ([]byte, bool) {
		for sc.Scan() {
			line++
			b := bytes.TrimSpace(sc.Bytes())
			if len(b) > 0 {
				out := make([]byte, len(b))
				copy(out, b)
				return out, true
			}
		}
		return nil, false
	}
	for {
		hdr, ok := next()
		if !ok {
			break
		}
		if hdr[0] != '@' {
			return nil, fmt.Errorf("fastx: line %d: expected @header, got %q", line, hdr)
		}
		seq, ok := next()
		if !ok {
			return nil, fmt.Errorf("fastx: line %d: truncated record (missing sequence)", line)
		}
		plus, ok := next()
		if !ok || plus[0] != '+' {
			return nil, fmt.Errorf("fastx: line %d: expected + separator", line)
		}
		qual, ok := next()
		if !ok {
			return nil, fmt.Errorf("fastx: line %d: truncated record (missing quality)", line)
		}
		if len(qual) != len(seq) {
			return nil, fmt.Errorf("fastx: line %d: quality length %d != sequence length %d",
				line, len(qual), len(seq))
		}
		recs = append(recs, Record{Name: string(hdr[1:]), Seq: seq, Qual: qual})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fastx: %w", err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("fastx: no FASTQ records found")
	}
	return recs, nil
}

// CodesOf converts a record's ASCII sequence to base codes, replacing
// each ambiguous character with a pseudo-random base drawn from rng.
func CodesOf(rec Record, rng *rand.Rand) []byte {
	out := make([]byte, len(rec.Seq))
	for i, b := range rec.Seq {
		c, ok := dna.CodeOf(b)
		if !ok {
			c = byte(rng.Intn(4))
		}
		out[i] = c
	}
	return out
}
