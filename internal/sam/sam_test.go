package sam

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/mapper"
)

// newWriter writes a one-contig header for contig c of length n.
func newWriter(t *testing.T, w io.Writer, c string, n int) *Writer {
	t.Helper()
	sw, err := NewMultiWriter(w, []RefSeq{{Name: c, Length: n}})
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// alignments places mappings on contig c with MAPQ 255 (unavailable) and
// cigars[i] as mapping i's CIGAR where one is given.
func alignments(c string, ms []mapper.Mapping, cigars ...string) []Alignment {
	alns := make([]Alignment, len(ms))
	for i, m := range ms {
		alns[i] = Alignment{RName: c, Pos: m.Pos, Strand: m.Strand, Dist: m.Dist, MAPQ: 255}
		if i < len(cigars) {
			alns[i].Cigar = cigars[i]
		}
	}
	return alns
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := newWriter(t, &buf, "chr21", 46_709_983)
	ms := []mapper.Mapping{
		{Pos: 99, Strand: mapper.Forward, Dist: 2},
		{Pos: 500, Strand: mapper.Reverse, Dist: 3},
	}
	if err := w.WriteAlignments("r1", []byte("ACGT"), alignments("chr21", ms)); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteAlignments("r2", []byte("GGGG"), nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	out := buf.String()
	if !strings.Contains(out, "@SQ\tSN:chr21\tLN:46709983") {
		t.Errorf("missing @SQ header in:\n%s", out)
	}

	recs, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("parsed %d records want 3", len(recs))
	}
	r := recs[0]
	if r.Name != "r1" || r.RefPos != 99 || r.Strand() != mapper.Forward || r.Dist != 2 {
		t.Errorf("primary = %+v", r)
	}
	if recs[1].Flag&FlagSecondary == 0 {
		t.Error("second location not flagged secondary")
	}
	if recs[1].Strand() != mapper.Reverse || recs[1].RefPos != 500 {
		t.Errorf("secondary = %+v", recs[1])
	}
	if !recs[2].Unmapped() || recs[2].RefPos != -1 {
		t.Errorf("unmapped = %+v", recs[2])
	}
}

func TestParseRejectsBadLines(t *testing.T) {
	if _, err := Parse(strings.NewReader("r1\tnotanumber\t*\t0\t0\t*\t*\t0\t0\t*\t*\n")); err == nil {
		t.Error("bad flag accepted")
	}
	if _, err := Parse(strings.NewReader("too\tfew\tfields\n")); err == nil {
		t.Error("short line accepted")
	}
	if _, err := Parse(strings.NewReader("r1\t0\tchr\tnope\t0\t*\t*\t0\t0\t*\t*\n")); err == nil {
		t.Error("bad pos accepted")
	}
}

func TestParseSkipsHeadersAndBlank(t *testing.T) {
	in := "@HD\tVN:1.6\n\n@SQ\tSN:x\tLN:10\nr\t0\tx\t1\t255\t*\t*\t0\t0\tAC\t*\n"
	recs, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].RefPos != 0 {
		t.Errorf("recs = %+v", recs)
	}
	if recs[0].Dist != -1 {
		t.Errorf("absent NM parsed as %d want -1", recs[0].Dist)
	}
}

func TestGroupByRead(t *testing.T) {
	var buf bytes.Buffer
	w := newWriter(t, &buf, "c", 1000)
	w.WriteAlignments("a", nil, alignments("c", []mapper.Mapping{
		{Pos: 30, Strand: mapper.Forward, Dist: 1},
		{Pos: 10, Strand: mapper.Reverse, Dist: 2},
	}))
	w.WriteAlignments("b", nil, nil) // unmapped
	w.Flush()
	recs, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	groups := GroupByRead(recs)
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	a := groups["a"]
	if len(a) != 2 || a[0].Pos != 10 || a[1].Pos != 30 {
		t.Errorf("group a = %+v (want sorted by pos)", a)
	}
	if a[0].Strand != mapper.Reverse || a[0].Dist != 2 {
		t.Errorf("group a[0] = %+v", a[0])
	}
	if ms, ok := groups["b"]; !ok || len(ms) != 0 {
		t.Errorf("unmapped read b = %v present=%v", ms, ok)
	}
}

// TestWriteReadCigars: each alignment carries its own CIGAR, and one
// without writes "*".
func TestWriteReadCigars(t *testing.T) {
	var buf bytes.Buffer
	w := newWriter(t, &buf, "c", 1000)
	w.WriteAlignments("r", []byte("ACGT"), alignments("c", []mapper.Mapping{
		{Pos: 5, Strand: mapper.Forward, Dist: 1},
		{Pos: 50, Strand: mapper.Forward, Dist: 2},
	}, "2M1I1M"))
	w.Flush()
	out := buf.String()
	if !strings.Contains(out, "\t2M1I1M\t") {
		t.Errorf("cigar missing:\n%s", out)
	}
	// Second mapping had no cigar supplied: must fall back to *.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, "\t*\t*\t0\t0\t") {
		t.Errorf("secondary record cigar not *: %s", last)
	}
}

func TestWritePair(t *testing.T) {
	var buf bytes.Buffer
	w := newWriter(t, &buf, "c", 100000)
	p := mapper.Pair{
		First:      mapper.Mapping{Pos: 1000, Strand: mapper.Forward, Dist: 1},
		Second:     mapper.Mapping{Pos: 1300, Strand: mapper.Reverse, Dist: 0},
		Insert:     400,
		Concordant: true,
	}
	if err := w.WritePair("frag1", []byte("ACGT"), []byte("TTTT"), p, "", "", ""); err != nil {
		t.Fatal(err)
	}
	if err := w.WritePair("frag2", []byte("ACGT"), []byte("TTTT"), p, "", "4M", "2M1I1M"); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	recs, err := Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("records = %d want 4", len(recs))
	}
	r1, r2 := recs[0], recs[1]
	if r1.Flag&FlagPaired == 0 || r1.Flag&FlagProperPair == 0 || r1.Flag&FlagFirstInPair == 0 {
		t.Errorf("r1 flags %#x", r1.Flag)
	}
	if r2.Flag&FlagSecondInPair == 0 || r2.Flag&FlagReverse == 0 {
		t.Errorf("r2 flags %#x", r2.Flag)
	}
	if r1.Flag&FlagMateReverse == 0 {
		t.Errorf("r1 lacks mate-reverse: %#x", r1.Flag)
	}
	if r1.RefPos != 1000 || r2.RefPos != 1300 {
		t.Errorf("positions %d/%d", r1.RefPos, r2.RefPos)
	}
	// TLEN: +insert on the leftmost record, -insert on the rightmost.
	if !strings.Contains(buf.String(), "\t400\t") || !strings.Contains(buf.String(), "\t-400\t") {
		t.Errorf("TLEN signs missing:\n%s", buf.String())
	}
	// CIGAR: "*" when none is given, else each mate's own string.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for i, want := range []string{"*", "*", "4M", "2M1I1M"} {
		if got := strings.Split(lines[len(lines)-4+i], "\t")[5]; got != want {
			t.Errorf("record %d CIGAR = %q, want %q", i, got, want)
		}
	}
}

func TestPositionsAreOneBasedOnDisk(t *testing.T) {
	var buf bytes.Buffer
	w := newWriter(t, &buf, "c", 100)
	w.WriteAlignments("r", nil, alignments("c", []mapper.Mapping{{Pos: 0, Strand: mapper.Forward}}))
	w.Flush()
	if !strings.Contains(buf.String(), "\tc\t1\t") {
		t.Errorf("position 0 not written as 1:\n%s", buf.String())
	}
}

// TestAppendWriterContinuesFile is the streaming-resume contract: a file
// written as header + prefix records, then reopened and continued with
// NewAppendWriter, is byte-identical to writing everything in one pass.
func TestAppendWriterContinuesFile(t *testing.T) {
	alns := []Alignment{
		{RName: "chr1", Pos: 10, Strand: '+', Dist: 1, MAPQ: 40},
		{RName: "chr1", Pos: 99, Strand: '-', Dist: 0},
	}

	var whole bytes.Buffer
	w := newWriter(t, &whole, "chr1", 1000)
	for i := 0; i < 4; i++ {
		if err := w.WriteAlignments(fmt.Sprintf("r%d", i), []byte("ACGT"), alns); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	var split bytes.Buffer
	w1 := newWriter(t, &split, "chr1", 1000)
	for i := 0; i < 2; i++ {
		if err := w1.WriteAlignments(fmt.Sprintf("r%d", i), []byte("ACGT"), alns); err != nil {
			t.Fatal(err)
		}
	}
	if err := w1.Flush(); err != nil {
		t.Fatal(err)
	}
	w2 := NewAppendWriter(&split, "chr1")
	for i := 2; i < 4; i++ {
		if err := w2.WriteAlignments(fmt.Sprintf("r%d", i), []byte("ACGT"), alns); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Flush(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(whole.Bytes(), split.Bytes()) {
		t.Errorf("append-continued file differs from single-pass file:\nwhole:\n%s\nsplit:\n%s",
			whole.String(), split.String())
	}
}

// TestWriteRecordsDoesNotAllocate is the runtime half of the record
// writer's //repute:hotpath contract: once the line buffer has grown to
// the longest record, mapped, secondary, unmapped and mate records are
// all formatted without a heap allocation.
func TestWriteRecordsDoesNotAllocate(t *testing.T) {
	w := newWriter(t, io.Discard, "chr21", 46_709_983)
	seq := bytes.Repeat([]byte("ACGT"), 25)
	alns := []Alignment{
		{RName: "chr21", Pos: 12_345_678, Strand: mapper.Reverse, Dist: 3, MAPQ: 40, Cigar: "100M"},
		{RName: "chr21", Pos: 99, Strand: mapper.Forward, Dist: 5},
	}
	pair := mapper.Pair{
		First:  mapper.Mapping{Pos: 1000, Strand: mapper.Forward, Dist: 1},
		Second: mapper.Mapping{Pos: 1300, Strand: mapper.Reverse, Dist: 2},
		Insert: 400,
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := w.WriteAlignments("read/1", seq, alns); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteAlignments("read/2", seq, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.WritePair("read/3", seq, seq, pair, "", "100M", "100M"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("writing records allocates %.1f times per run, want 0", allocs)
	}
}
