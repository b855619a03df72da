package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsUnknownName: a misspelt experiment is an error naming the
// valid ones, raised before anything runs — not a silently shorter run.
func TestRunRejectsUnknownName(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, "tiny", 1, "table1,bogus", "")
	if err == nil {
		t.Fatalf("accepted; printed:\n%s", out.String())
	}
	for _, want := range []string{`"bogus"`, "table1", "fig4", "prefilter", "all"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	if out.Len() != 0 {
		t.Errorf("ran before refusing:\n%s", out.String())
	}
}

// TestRunAllIsTheSixPaperExperiments: "all" prints exactly what the six
// names print, in table order whatever order they are given in, and
// leaves the prefilter sweep out.
func TestRunAllIsTheSixPaperExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs in -short mode")
	}
	const scale = "60000:40"
	var all, named bytes.Buffer
	if err := run(&all, scale, 1, "all", ""); err != nil {
		t.Fatal(err)
	}
	if err := run(&named, scale, 1, "fig4, fig3,table4,table3,table2,Table1", ""); err != nil {
		t.Fatal(err)
	}
	if all.String() != named.String() {
		t.Errorf("-run all printed:\n%s\nthe six names printed:\n%s", all.String(), named.String())
	}
	for _, want := range []string{"Table I:", "Table II:", "Table III:", "P(W)", "Smin=12", "[PASS]"} {
		if !strings.Contains(all.String(), want) {
			t.Errorf("-run all output lacks %q", want)
		}
	}
	if strings.Contains(all.String(), "Pre-alignment filter") {
		t.Error("-run all ran the prefilter sweep")
	}
}
