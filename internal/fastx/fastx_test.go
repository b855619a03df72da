package fastx

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// scan parses in with a strict Scanner of the given format.
func scan(in string, format Format) ([]Record, error) {
	return collect(NewScanner(strings.NewReader(in), ScanOptions{Format: format}))
}

func TestReadFastaBasic(t *testing.T) {
	in := ">chr1 test\nACGT\nACGT\n>chr2\nTTTT\n"
	recs, err := scan(in, FormatFASTA)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records want 2", len(recs))
	}
	if recs[0].Name != "chr1 test" || string(recs[0].Seq) != "ACGTACGT" {
		t.Errorf("rec0 = %q/%q", recs[0].Name, recs[0].Seq)
	}
	if recs[1].Name != "chr2" || string(recs[1].Seq) != "TTTT" {
		t.Errorf("rec1 = %q/%q", recs[1].Name, recs[1].Seq)
	}
}

// TestReadFastaErrors: malformed FASTA is a typed error; empty input is
// no records and no error (the reference loader refuses it).
func TestReadFastaErrors(t *testing.T) {
	for _, in := range []string{"ACGT\n", ">a\nAC>GT\n"} {
		var pe *ParseError
		if _, err := scan(in, FormatFASTA); !errors.As(err, &pe) {
			t.Errorf("%q: want ParseError, got %v", in, err)
		}
	}
	if recs, err := scan("", FormatFASTA); err != nil || len(recs) != 0 {
		t.Errorf("empty input: %d records, err %v", len(recs), err)
	}
}

func TestFastaRoundTrip(t *testing.T) {
	recs := []Record{
		{Name: "a", Seq: []byte("ACGTACGTACGTACGT")},
		{Name: "b", Seq: []byte("TT")},
	}
	var buf bytes.Buffer
	if err := WriteFasta(&buf, recs, 5); err != nil {
		t.Fatal(err)
	}
	got, err := scan(buf.String(), FormatFASTA)
	if err != nil {
		t.Fatal(err)
	}
	if !recordsEqual(got, recs) {
		t.Errorf("round trip: %+v want %+v", got, recs)
	}
}

func TestReadFastqBasic(t *testing.T) {
	in := "@r1\nACGT\n+\nIIII\n@r2\nGG\n+anything\n!!\n"
	recs, err := scan(in, FormatFASTQ)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records want 2", len(recs))
	}
	if recs[0].Name != "r1" || string(recs[0].Seq) != "ACGT" || string(recs[0].Qual) != "IIII" {
		t.Errorf("rec0 = %+v", recs[0])
	}
}

func TestReadFastqErrors(t *testing.T) {
	cases := []string{
		"@r1\nACGT\n+\nII\n",      // qual length mismatch
		"@r1\nACGT\n",             // truncated
		"r1\nACGT\n+\nIIII\n",     // missing @
		"@r1\nACGT\nIIII\nIIII\n", // missing +
	}
	for i, in := range cases {
		var pe *ParseError
		if _, err := scan(in, FormatFASTQ); !errors.As(err, &pe) {
			t.Errorf("case %d: want ParseError, got %v: %q", i, err, in)
		}
	}
	if recs, err := scan("", FormatFASTQ); err != nil || len(recs) != 0 {
		t.Errorf("empty input: %d records, err %v", len(recs), err)
	}
}

func TestFastqRoundTrip(t *testing.T) {
	recs := []Record{
		{Name: "x", Seq: []byte("ACGTA"), Qual: []byte("IJKLM")},
		{Name: "y", Seq: []byte("TT")}, // nil qual gets filled
	}
	var buf bytes.Buffer
	if err := WriteFastq(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := scan(buf.String(), FormatFASTQ)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[0].Qual) != "IJKLM" {
		t.Errorf("qual = %q want IJKLM", got[0].Qual)
	}
	if string(got[1].Qual) != "II" {
		t.Errorf("filled qual = %q want II", got[1].Qual)
	}
}

func TestCodesOf(t *testing.T) {
	c := NewCodec(0)
	codes := c.Codes(Record{Name: "r", Seq: []byte("ACGTacgt")})
	if want := []byte{0, 1, 2, 3, 0, 1, 2, 3}; !bytes.Equal(codes, want) {
		t.Fatalf("codes = %v want %v", codes, want)
	}
	if c.Draws() != 0 {
		t.Errorf("unambiguous bases drew %d times", c.Draws())
	}
}

func TestCodesOfAmbiguous(t *testing.T) {
	c := NewCodec(1)
	codes := c.Codes(Record{Name: "r", Seq: []byte("ACNNT")})
	for i, code := range codes {
		if code > 3 {
			t.Errorf("code %d at %d out of range", code, i)
		}
	}
	if codes[0] != 0 || codes[1] != 1 || codes[4] != 3 {
		t.Errorf("unambiguous bases altered: %v", codes)
	}
	if c.Draws() != 2 {
		t.Errorf("draws = %d, want one per N", c.Draws())
	}
}
