package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRunRejectsNonPositiveSizes: a reference or read count of zero or
// less is refused before anything is written.
func TestRunRejectsNonPositiveSizes(t *testing.T) {
	for _, tc := range []struct {
		name          string
		refLen, reads int
	}{
		{"len=-5", -5, 10},
		{"len=0", 0, 10},
		{"n=-1", 5000, -1},
		{"n=0", 5000, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := filepath.Join(t.TempDir(), "ref.fa")
			if err := run(ref, tc.refLen, 1, ref+".fq", tc.reads, 100); err == nil {
				t.Fatal("accepted")
			}
			if _, err := os.Stat(ref); err == nil {
				t.Errorf("wrote %s before refusing", ref)
			}
		})
	}
}
