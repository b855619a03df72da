// Package checkpoint makes streaming mapping runs crash-safe: at every
// batch boundary the host records how far it got — input byte offset,
// ambiguity-draw count, SAM output size, cumulative stats, and the
// fault-injection ordinals of every device — in a small deterministic
// JSON file, written atomically (temp file + rename) so a kill at any
// instant leaves either the previous checkpoint or the new one, never a
// torn file.
//
// A checkpoint is only valid against the exact reference index and
// mapping options that produced it: both are folded into a fingerprint,
// and resuming with a mismatched fingerprint fails with a typed
// *MismatchError instead of silently mixing incompatible outputs.
// Restoring the fault ordinals makes an injected REPUTE_CL_FAULTS
// schedule continue where the interrupted run stopped, so a killed and
// resumed chaos run is bit-identical to an uninterrupted one
// (DESIGN.md §11).
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cl"
	"repro/internal/mapper"
)

// Version is the checkpoint file format version.
const Version = 1

// State is everything a resumed run needs to continue a streaming map
// exactly where the interrupted run stopped.
type State struct {
	// Version is the file format version (reject anything newer).
	Version int `json:"version"`
	// Fingerprint binds the checkpoint to one reference index + options
	// combination (see Fingerprint).
	Fingerprint string `json:"fingerprint"`
	// BatchSize is the streaming batch size of the interrupted run.
	BatchSize int `json:"batch_size"`
	// Batches and Reads count completed batches and reads.
	Batches int `json:"batches"`
	Reads   int `json:"reads"`
	// Offset is the input byte offset of the first unconsumed record;
	// Line the 1-based input line number at that point.
	Offset int64 `json:"offset"`
	Line   int   `json:"line,omitempty"`
	// RNGDraws counts the ambiguity substitutions drawn so far, so the
	// resumed codec replays the same pseudo-random bases (fastx.Codec).
	RNGDraws uint64 `json:"rng_draws,omitempty"`
	// SAMBytes is the size of the valid SAM prefix; resume truncates the
	// output here before appending (a kill between the SAM flush and the
	// checkpoint rename leaves a longer file, never a shorter one).
	SAMBytes int64 `json:"sam_bytes"`
	// Mapped, Locations and Dropped carry the cumulative summary tallies.
	Mapped    int `json:"mapped"`
	Locations int `json:"locations"`
	Dropped   int `json:"dropped,omitempty"`
	// SimSeconds, EnergyJ, DeviceSeconds and Cost accumulate the
	// simulated accounting across every completed batch.
	SimSeconds    float64            `json:"sim_seconds"`
	EnergyJ       float64            `json:"energy_j"`
	DeviceSeconds map[string]float64 `json:"device_seconds,omitempty"`
	Cost          cl.Cost            `json:"cost"`
	// Faults is the cumulative fault-recovery and skipped-record account.
	Faults mapper.FaultStats `json:"faults"`
	// FaultOrdinals snapshots each device's injection counters so an
	// armed fault plan continues its schedule instead of replaying it.
	FaultOrdinals map[string]cl.FaultOrdinals `json:"fault_ordinals,omitempty"`
}

// MismatchError reports a checkpoint whose fingerprint does not match
// the current run's reference index and mapping options.
type MismatchError struct {
	Got  string // fingerprint recorded in the checkpoint
	Want string // fingerprint of the current run
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("checkpoint: fingerprint mismatch: checkpoint %s vs current run %s (reference index or mapping options changed)",
		e.Got, e.Want)
}

// Verify checks the checkpoint against the current run's fingerprint.
func (st *State) Verify(fingerprint string) error {
	if st.Fingerprint != fingerprint {
		return &MismatchError{Got: st.Fingerprint, Want: fingerprint}
	}
	return nil
}

// FingerprintDigest hashes the index artifact's container digest (which
// pins the exact index bytes in O(1)), the mapping options, and any extra
// run parameters that determine batch boundaries (selector, batch size,
// lenient flag, ...). Equal inputs hash to equal strings. The retries= and
// backoff= literals are the only values those two former options ever
// took; they stay in the hashed text so checkpoints written then resume.
func FingerprintDigest(digest [32]byte, opt mapper.Options, extra ...string) string {
	h := sha256.New()
	h.Write(digest[:])
	o := opt.WithDefaults()
	fmt.Fprintf(h, "|e=%d|loc=%d|best=%t|smin=%d|freq=%d|retries=3|backoff=0.001|prefilter=%s",
		o.MaxErrors, o.MaxLocations, o.Best, o.MinSeedLen, o.MaxSeedFreq, o.Prefilter)
	for _, e := range extra {
		fmt.Fprintf(h, "|%s", e)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// DirError reports a checkpoint directory that cannot hold checkpoints —
// missing, not a directory, or not writable. CheckDir returns it at
// startup so a run fails before mapping work begins, not on the first
// batch-boundary Save.
type DirError struct {
	Dir string // the offending directory
	Err error  // the underlying cause
}

func (e *DirError) Error() string {
	return fmt.Sprintf("checkpoint: directory %s unusable: %v", e.Dir, e.Err)
}

func (e *DirError) Unwrap() error { return e.Err }

// CheckDir probes that dir exists, is a directory, and is writable by
// creating and removing a temp file — the same operations Save will
// perform. A failure comes back as a typed *DirError.
func CheckDir(dir string) error {
	fi, err := os.Stat(dir)
	if err != nil {
		return &DirError{Dir: dir, Err: err}
	}
	if !fi.IsDir() {
		return &DirError{Dir: dir, Err: fmt.Errorf("not a directory")}
	}
	f, err := os.CreateTemp(dir, ".ckpt-probe-*")
	if err != nil {
		return &DirError{Dir: dir, Err: err}
	}
	name := f.Name()
	f.Close()
	if err := os.Remove(name); err != nil {
		return &DirError{Dir: dir, Err: err}
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss; filesystems that reject directory fsync (some network mounts)
// are tolerated, matching the usual write-ahead-log practice.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil && (os.IsPermission(err) || os.IsNotExist(err)) {
		return err
	}
	// EINVAL/ENOTSUP from Sync on exotic filesystems: the rename itself
	// still happened; treat as best-effort.
	return nil
}

// Save writes the checkpoint atomically and durably: marshal, write to
// a temp file in the same directory, fsync, rename over path, then
// fsync the parent directory so the new directory entry itself is on
// disk — without that last step a power cut after the rename can roll
// the directory back to the old entry (or none). Equal states produce
// byte-identical files.
func Save(path string, st *State) error {
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	b = append(b, '\n')
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Load reads a checkpoint written by Save.
func Load(path string) (*State, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	st := &State{}
	if err := json.Unmarshal(b, st); err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	if st.Version != Version {
		return nil, fmt.Errorf("checkpoint: %s: format version %d, this build reads %d",
			path, st.Version, Version)
	}
	return st, nil
}
