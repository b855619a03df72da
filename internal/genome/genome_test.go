package genome

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/dna"
	"repro/internal/fastx"
)

func mustNew(t *testing.T) *Genome {
	t.Helper()
	g, err := New(
		[]string{"chr1", "chr2", "chr3"},
		[][]byte{
			dna.MustEncode("ACGTACGTAC"), // 10
			dna.MustEncode("TTTT"),       // 4
			dna.MustEncode("GGGGGG"),     // 6
		})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Error("empty genome accepted")
	}
	if _, err := New([]string{"a"}, nil); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := New([]string{"a", "a"}, [][]byte{{0}, {1}}); err == nil {
		t.Error("duplicate names accepted")
	}
	if _, err := New([]string{""}, [][]byte{{0}}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := New([]string{"a"}, [][]byte{{}}); err == nil {
		t.Error("empty contig accepted")
	}
}

func TestTextConcatenation(t *testing.T) {
	g := mustNew(t)
	if g.Len() != 20 {
		t.Fatalf("Len = %d want 20", g.Len())
	}
	want := "ACGTACGTACTTTTGGGGGG"
	if got := dna.Decode(g.Text()); got != want {
		t.Errorf("Text = %q want %q", got, want)
	}
	if len(g.Contigs()) != 3 {
		t.Errorf("contigs = %v", g.Contigs())
	}
}

func TestLocate(t *testing.T) {
	g := mustNew(t)
	cases := []struct {
		pos  int
		name string
		off  int
	}{
		{0, "chr1", 0}, {9, "chr1", 9},
		{10, "chr2", 0}, {13, "chr2", 3},
		{14, "chr3", 0}, {19, "chr3", 5},
	}
	for _, tc := range cases {
		c, off, err := g.Locate(tc.pos)
		if err != nil {
			t.Fatalf("Locate(%d): %v", tc.pos, err)
		}
		if c.Name != tc.name || off != tc.off {
			t.Errorf("Locate(%d) = %s:%d want %s:%d", tc.pos, c.Name, off, tc.name, tc.off)
		}
	}
	for _, bad := range []int{-1, 20, 100} {
		if _, _, err := g.Locate(bad); err == nil {
			t.Errorf("Locate(%d) accepted", bad)
		}
	}
}

func TestGlobalRoundTrip(t *testing.T) {
	g := mustNew(t)
	f := func(raw uint16) bool {
		pos := int(raw) % g.Len()
		c, off, err := g.Locate(pos)
		if err != nil {
			return false
		}
		back, err := g.Global(c.Name, off)
		return err == nil && back == pos
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if _, err := g.Global("nope", 0); err == nil {
		t.Error("unknown contig accepted")
	}
	if _, err := g.Global("chr2", 4); err == nil {
		t.Error("offset past contig end accepted")
	}
}

func TestSpansBoundary(t *testing.T) {
	g := mustNew(t)
	cases := []struct {
		pos, length int
		want        bool
	}{
		{0, 10, false}, // exactly chr1
		{0, 11, true},  // into chr2
		{8, 2, false},  // chr1 tail
		{8, 3, true},   // crosses into chr2
		{10, 4, false}, // exactly chr2
		{14, 6, false}, // exactly chr3
		{14, 7, true},  // past the end
		{-1, 2, true},  // invalid
		{19, 1, false}, // last base
		{19, 2, true},  // overruns
	}
	for _, tc := range cases {
		if got := g.SpansBoundary(tc.pos, tc.length); got != tc.want {
			t.Errorf("SpansBoundary(%d,%d) = %v want %v", tc.pos, tc.length, got, tc.want)
		}
	}
}

// TestFromFasta: contigs keep their order and names, and ambiguous bases
// take the seed-0 Codec's draws in contig order.
func TestFromFasta(t *testing.T) {
	recs := []fastx.Record{
		{Name: "c1", Seq: []byte("ACNT")},
		{Name: "c2", Seq: []byte("GGNN")},
	}
	g, err := FromFasta(recs)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 8 || g.Contigs()[1].Name != "c2" {
		t.Errorf("genome = %+v", g.Contigs())
	}
	codec := fastx.NewCodec(0)
	want := append(codec.Codes(recs[0]), codec.Codes(recs[1])...)
	if !bytes.Equal(g.Text(), want) {
		t.Errorf("text = %v, want %v", g.Text(), want)
	}
}
