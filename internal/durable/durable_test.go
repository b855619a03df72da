package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// entries lists a directory's names.
func entries(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// TestWriteFileReplaces: a write creates the file, a second replaces it,
// and neither leaves its temp file behind.
func TestWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	for _, want := range []string{"first", "second"} {
		if err := WriteFile(path, writeString(want)); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); string(got) != want {
			t.Errorf("file holds %q, want %q", got, want)
		}
	}
	if names := entries(t, dir); len(names) != 1 || names[0] != "f" {
		t.Errorf("directory holds %v, want only f", names)
	}
}

// TestWriteFileErrorKeepsOld: a failing writer leaves the previous file
// untouched and removes its temp file.
func TestWriteFileErrorKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := WriteFile(path, writeString("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFile(path, func(w io.Writer) error {
		io.WriteString(w, "torn")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Errorf("file holds %q after a failed write, want %q", got, "old")
	}
	if names := entries(t, dir); len(names) != 1 {
		t.Errorf("directory holds %v, want only f", names)
	}
}

// TestCommitMovesAcrossDirectories: Commit renames a temp file written in
// one directory to a path in another on the same file system, as the
// upload spool does.
func TestCommitMovesAcrossDirectories(t *testing.T) {
	root := t.TempDir()
	sub := filepath.Join(root, "job")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.CreateTemp(root, ".upload-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("reads"); err != nil {
		t.Fatal(err)
	}
	if err := Commit(f, filepath.Join(sub, "reads.fq")); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(sub, "reads.fq")); string(got) != "reads" {
		t.Errorf("committed file holds %q", got)
	}
	if names := entries(t, root); len(names) != 1 || names[0] != "job" {
		t.Errorf("spool root holds %v, want only job", names)
	}
}

// TestCommitIntoRemovedDirectoryFails: a commit whose target directory
// is gone fails and removes the temp file, rather than reporting a
// durable write it did not make.
func TestCommitIntoRemovedDirectoryFails(t *testing.T) {
	root := t.TempDir()
	f, err := os.CreateTemp(root, "tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	if err := Commit(f, filepath.Join(root, "gone", "f")); err == nil {
		t.Fatal("commit into a missing directory succeeded")
	}
	if names := entries(t, root); len(names) != 0 {
		t.Errorf("failed commit left %v", names)
	}
	if err := SyncDir(filepath.Join(root, "gone")); err == nil {
		t.Error("SyncDir of a missing directory succeeded")
	}
}
