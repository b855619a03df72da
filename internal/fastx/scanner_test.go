package fastx

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/trace"
)

// collect drains a scanner, returning the records and terminal error.
func collect(sc *Scanner) ([]Record, error) {
	var recs []Record
	for sc.Scan() {
		recs = append(recs, sc.Record())
	}
	return recs, sc.Err()
}

func recordsEqual(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || !bytes.Equal(a[i].Seq, b[i].Seq) ||
			!bytes.Equal(a[i].Qual, b[i].Qual) {
			return false
		}
	}
	return true
}

// TestScannerMatchesBatchParsers cross-validates the streaming scanner
// against ReadFasta/ReadFastq on well-formed inputs, including CRLF line
// endings, blank separator lines and wrapped FASTA sequence.
func TestScannerMatchesBatchParsers(t *testing.T) {
	fastaInputs := map[string]string{
		"simple":    ">a\nACGT\n>b desc here\nTTTT\nGGGG\n",
		"crlf":      ">a\r\nACGT\r\n>b\r\nTT\r\n",
		"blank":     "\n\n>a\nAC\n\nGT\n\n>b\nTT\n",
		"noEOFnl":   ">a\nACGT",
		"emptySeq":  ">a\n>b\nACGT\n",
		"wrapped":   ">chr\n" + strings.Repeat("ACGTACGTAC\n", 20),
		"nameTrim":  ">  padded name  \nAC\n",
		"seqSpaces": ">a\n  ACGT  \n",
		"seqInner":  ">a\nAC GT\tTT\n",
	}
	for name, in := range fastaInputs {
		t.Run("fasta/"+name, func(t *testing.T) {
			want, err := ReadFasta(strings.NewReader(in))
			if err != nil {
				t.Fatalf("ReadFasta: %v", err)
			}
			got, err := collect(NewScanner(strings.NewReader(in), ScanOptions{Format: FormatFASTA}))
			if err != nil {
				t.Fatalf("Scanner: %v", err)
			}
			if !recordsEqual(got, want) {
				t.Errorf("records differ:\nscanner %+v\nbatch   %+v", got, want)
			}
		})
	}

	fastqInputs := map[string]string{
		"simple":  "@r1\nACGT\n+\nIIII\n@r2\nTT\n+\n##\n",
		"crlf":    "@r1\r\nACGT\r\n+\r\nIIII\r\n",
		"plusTag": "@r1\nACGT\n+r1\nIIII\n",
		"blank":   "\n@r1\nACGT\n\n+\nIIII\n\n@r2\nAA\n+\nII\n",
		"noEOFnl": "@r1\nACGT\n+\nIIII",
	}
	for name, in := range fastqInputs {
		t.Run("fastq/"+name, func(t *testing.T) {
			want, err := ReadFastq(strings.NewReader(in))
			if err != nil {
				t.Fatalf("ReadFastq: %v", err)
			}
			got, err := collect(NewScanner(strings.NewReader(in), ScanOptions{Format: FormatFASTQ}))
			if err != nil {
				t.Fatalf("Scanner: %v", err)
			}
			if !recordsEqual(got, want) {
				t.Errorf("records differ:\nscanner %+v\nbatch   %+v", got, want)
			}
		})
	}
}

func TestScannerAutoDetect(t *testing.T) {
	recs, err := collect(NewScanner(strings.NewReader("\n>a\nACGT\n"), ScanOptions{}))
	if err != nil || len(recs) != 1 || recs[0].Name != "a" {
		t.Errorf("auto FASTA: recs %+v err %v", recs, err)
	}
	recs, err = collect(NewScanner(strings.NewReader("@r\nAC\n+\nII\n"), ScanOptions{}))
	if err != nil || len(recs) != 1 || recs[0].Name != "r" {
		t.Errorf("auto FASTQ: recs %+v err %v", recs, err)
	}
	_, err = collect(NewScanner(strings.NewReader("garbage\n"), ScanOptions{}))
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Reason != ReasonUnknownFormat {
		t.Errorf("auto garbage: want unknown-format ParseError, got %v", err)
	}
}

// TestScannerTypedErrors checks that each malformation class surfaces as
// a ParseError with the right reason and a usable position.
func TestScannerTypedErrors(t *testing.T) {
	cases := []struct {
		name   string
		format Format
		in     string
		reason string
		line   int
	}{
		{"fastqBadHeader", FormatFASTQ, "@r1\nAC\n+\nII\nnotaheader\nAC\n+\nII\n", ReasonMissingHeader, 5},
		{"fastqTruncSeq", FormatFASTQ, "@r1\n", ReasonTruncatedRecord, 1},
		{"fastqTruncPlus", FormatFASTQ, "@r1\nACGT\n", ReasonTruncatedRecord, 2},
		{"fastqTruncQual", FormatFASTQ, "@r1\nACGT\n+\n", ReasonTruncatedRecord, 3},
		{"fastqBadPlus", FormatFASTQ, "@r1\nACGT\nIIII\nACGT\n", ReasonMissingSeparator, 3},
		{"fastqLenMismatch", FormatFASTQ, "@r1\nACGT\n+\nIII\n", ReasonLengthMismatch, 4},
		{"fastaLeadingSeq", FormatFASTA, "ACGT\n>a\nAC\n", ReasonMissingHeader, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := collect(NewScanner(strings.NewReader(tc.in),
				ScanOptions{Format: tc.format, Name: "in.fx"}))
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("want ParseError, got %v", err)
			}
			if pe.Reason != tc.reason {
				t.Errorf("reason = %q, want %q", pe.Reason, tc.reason)
			}
			if pe.Line != tc.line {
				t.Errorf("line = %d, want %d", pe.Line, tc.line)
			}
			if pe.File != "in.fx" {
				t.Errorf("file = %q, want in.fx", pe.File)
			}
		})
	}
}

// TestScannerLenientSkips checks that lenient mode skips exactly the
// malformed records, keeps the well-formed ones, tallies skips per
// reason, and emits one record-skipped trace instant per skip.
func TestScannerLenientSkips(t *testing.T) {
	in := "@r1\nACGT\n+\nIIII\n" + // good
		"@r2\nACGT\n+\nIII\n" + // length mismatch
		"junk line\n" + // missing header; resync to next '@'
		"@r3\nAC\n+\nII\n" + // good
		"@r4\nACGT\nIIII\n" + // missing separator; resync consumes to EOF
		"@r5\nAC\n+\nII\n" // good (resync target)
	rec := trace.NewRecorder()
	sc := NewScanner(strings.NewReader(in), ScanOptions{
		Format: FormatFASTQ, Lenient: true, Name: "dirty.fq", Tracer: rec,
	})
	recs, err := collect(sc)
	if err != nil {
		t.Fatalf("lenient scan must not fail: %v", err)
	}
	var names []string
	for _, r := range recs {
		names = append(names, r.Name)
	}
	if got, want := strings.Join(names, ","), "r1,r3,r5"; got != want {
		t.Errorf("kept %s, want %s", got, want)
	}
	sk := sc.Skipped()
	if sk.Records != 3 {
		t.Errorf("skipped %d records, want 3 (%v)", sk.Records, sk.Reasons)
	}
	want := map[string]int{
		ReasonLengthMismatch:   1,
		ReasonMissingHeader:    1,
		ReasonMissingSeparator: 1,
	}
	for r, n := range want {
		if sk.Reasons[r] != n {
			t.Errorf("reason %s = %d, want %d", r, sk.Reasons[r], n)
		}
	}
	instants := 0
	for _, ev := range rec.Events() {
		if ev.Phase == 'i' && ev.Name == "record-skipped" && ev.Lane == "ingest" {
			instants++
		}
	}
	if instants != sk.Records {
		t.Errorf("%d record-skipped instants for %d skips", instants, sk.Records)
	}
	snap := rec.Metrics()
	if got := snap.Counters["records_skipped_total"]; got != 3 {
		t.Errorf("records_skipped_total = %d, want 3", got)
	}
	if got := snap.Counters["records_skipped_total/"+ReasonLengthMismatch]; got != 1 {
		t.Errorf("records_skipped_total/length-mismatch = %d, want 1", got)
	}
}

// TestScannerOffsetResume is the checkpoint contract: stopping after any
// record, reopening the input at Offset(), and scanning again must yield
// exactly the remaining records.
func TestScannerOffsetResume(t *testing.T) {
	var sb strings.Builder
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		n := 20 + rng.Intn(80)
		seq := make([]byte, n)
		for j := range seq {
			seq[j] = "ACGTN"[rng.Intn(5)]
		}
		sb.WriteString("@read")
		sb.WriteByte(byte('0' + i%10))
		sb.WriteString("\n")
		sb.Write(seq)
		sb.WriteString("\n+\n")
		sb.WriteString(strings.Repeat("I", n))
		sb.WriteString("\n")
		if i%7 == 0 {
			sb.WriteString("\n") // blank separator line
		}
	}
	in := sb.String()
	full, err := collect(NewScanner(strings.NewReader(in), ScanOptions{Format: FormatFASTQ}))
	if err != nil {
		t.Fatal(err)
	}

	for stop := 0; stop <= len(full); stop++ {
		sc := NewScanner(strings.NewReader(in), ScanOptions{Format: FormatFASTQ})
		for i := 0; i < stop; i++ {
			if !sc.Scan() {
				t.Fatalf("stop %d: premature end", stop)
			}
		}
		off := sc.Offset()
		line := sc.Line()
		rest, err := collect(NewScanner(strings.NewReader(in[off:]),
			ScanOptions{Format: FormatFASTQ, BaseOffset: off, BaseLine: line}))
		if err != nil {
			t.Fatalf("stop %d: resume: %v", stop, err)
		}
		if !recordsEqual(rest, full[stop:]) {
			t.Fatalf("stop %d: resumed records differ (%d vs %d)", stop, len(rest), len(full[stop:]))
		}
	}
}

// TestScannerLineTooLong: a line one byte past the bound (newline
// included) is malformed, one exactly at the bound is not.
func TestScannerLineTooLong(t *testing.T) {
	long := strings.Repeat("A", maxLineBytes)
	in := ">a\n" + long + "\n>b\nAC\n"
	// Strict: the over-long sequence line is a typed error.
	_, err := collect(NewScanner(strings.NewReader(in), ScanOptions{Format: FormatFASTA}))
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Reason != ReasonLineTooLong {
		t.Errorf("strict: want line-too-long, got %v", err)
	}
	// Lenient: the whole record drops, the next survives.
	sc := NewScanner(strings.NewReader(in), ScanOptions{Format: FormatFASTA, Lenient: true})
	recs, err := collect(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Name != "b" {
		t.Errorf("lenient: kept %d records, want only record b", len(recs))
	}
	if sc.Skipped().Reasons[ReasonLineTooLong] != 1 {
		t.Errorf("skip tallies = %+v", sc.Skipped())
	}
	// At the bound: accepted whole.
	recs, err = collect(NewScanner(strings.NewReader(">a\n"+long[1:]+"\n"), ScanOptions{Format: FormatFASTA}))
	if err != nil || len(recs) != 1 || len(recs[0].Seq) != maxLineBytes-1 {
		t.Errorf("line at the bound: %d records, err %v", len(recs), err)
	}
}

// TestCodecFastForward checks the resume property: encoding a read set
// in two halves with a fast-forwarded second codec substitutes the same
// pseudo-random bases as one uninterrupted codec.
func TestCodecFastForward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	recs := make([]Record, 30)
	for i := range recs {
		seq := make([]byte, 50+rng.Intn(50))
		for j := range seq {
			seq[j] = "ACGTNRY"[rng.Intn(7)] // plenty of ambiguity codes
		}
		recs[i] = Record{Name: "r", Seq: seq}
	}

	one := NewCodec(0)
	var whole [][]byte
	for _, r := range recs {
		whole = append(whole, one.Codes(r))
	}

	for split := 0; split <= len(recs); split += 7 {
		first := NewCodec(0)
		var draws uint64
		for i := 0; i < split; i++ {
			first.Codes(recs[i])
		}
		draws = first.Draws()
		second := NewCodec(0)
		second.FastForward(draws)
		for i := split; i < len(recs); i++ {
			if got := second.Codes(recs[i]); !bytes.Equal(got, whole[i]) {
				t.Fatalf("split %d: read %d codes differ after fast-forward", split, i)
			}
		}
		if second.Draws() != one.Draws() {
			t.Fatalf("split %d: draw count %d, want %d", split, second.Draws(), one.Draws())
		}
	}
}

// TestCodecMatchesCodesOf pins the Codec to the plain seed-RNG policy
// (the CodesOf oracle) that references have always been indexed under,
// so the reference and the reads substitute ambiguous bases alike and
// artifacts built before the Codec keep their bytes.
func TestCodecMatchesCodesOf(t *testing.T) {
	recs := []Record{
		{Name: "a", Seq: []byte("ACGTNNRYACGT")},
		{Name: "b", Seq: []byte("NNNNACGT")},
	}
	rng := rand.New(rand.NewSource(0))
	codec := NewCodec(0)
	for i, r := range recs {
		want := CodesOf(r, rng)
		if got := codec.Codes(r); !bytes.Equal(got, want) {
			t.Errorf("read %d: Codec %v != CodesOf %v", i, got, want)
		}
	}
}
