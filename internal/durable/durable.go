// Package durable is the one rule for replacing a file that a resume or
// a restart reads back (the checkpoint, the .ridx index, a job's
// job.json, trace.json and spooled reads.fq): write a temp file in the
// target's directory, fsync it, close it, rename it over the target,
// then fsync the directory. A crash or power cut at any instant leaves
// the old file or the new one, never a torn file, and once a call
// returns nil the new file survives a power cut (DESIGN.md §11).
package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// WriteFile replaces path with the bytes write produces. The temp file
// is path + ".tmp", so writers of one path must not run concurrently; a
// crash leaves at most that one stale temp, which the next write
// reuses. Errors are as Commit's; a failing write removes the temp file
// and leaves path untouched.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	return Commit(f, path)
}

// Commit makes f, an open temp file already written in path's file
// system, the new path: it fsyncs and closes f, renames it over path and
// fsyncs path's directory. An error before the rename closes and removes
// f and leaves path untouched; an error from the directory fsync comes
// after the rename, so path is new but may not survive a power cut.
func Commit(f *os.File, path string) error {
	err := errors.Join(f.Sync(), f.Close())
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory so the entries just created or renamed in
// it survive a power cut. File systems that refuse a directory fsync
// (EINVAL or ENOTSUP, as some network mounts do) are tolerated: the
// entry is in place, only its durability is best-effort there.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = errors.Join(d.Sync(), d.Close())
	if errors.Is(err, syscall.EINVAL) || errors.Is(err, errors.ErrUnsupported) {
		return nil
	}
	return err
}
