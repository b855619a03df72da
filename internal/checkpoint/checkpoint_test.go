package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cl"
	"repro/internal/mapper"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	st := &State{
		Version:       Version,
		Fingerprint:   "abc123",
		BatchSize:     64,
		Batches:       3,
		Reads:         192,
		Offset:        40961,
		Line:          768,
		RNGDraws:      17,
		SAMBytes:      99182,
		Mapped:        180,
		Locations:     411,
		Dropped:       2,
		SimSeconds:    1.25,
		EnergyJ:       3.5,
		DeviceSeconds: map[string]float64{"cpu": 1.25},
		Faults: mapper.FaultStats{
			Retries:        2,
			SkippedRecords: 1,
			SkipReasons:    map[string]int{"length-mismatch": 1},
		},
		FaultOrdinals: map[string]cl.FaultOrdinals{"cpu": {Enqueues: 7, Allocs: 21}},
	}
	if err := Save(path, st); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(path)
	if err := Save(path, got); err != nil {
		t.Fatal(err)
	}
	b2, _ := os.ReadFile(path)
	if !bytes.Equal(b1, b2) {
		t.Error("save is not deterministic: re-saving a loaded state changed the bytes")
	}
	if got.Offset != st.Offset || got.RNGDraws != st.RNGDraws || got.SAMBytes != st.SAMBytes {
		t.Errorf("round-trip lost position state: %+v", got)
	}
	if got.FaultOrdinals["cpu"] != st.FaultOrdinals["cpu"] {
		t.Errorf("round-trip lost fault ordinals: %+v", got.FaultOrdinals)
	}
	if got.Faults.SkipReasons["length-mismatch"] != 1 {
		t.Errorf("round-trip lost skip reasons: %+v", got.Faults)
	}
}

func TestLoadRejectsUnknownVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, &State{Version: Version + 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("newer format version must be rejected")
	}
}

func TestVerifyMismatchIsTyped(t *testing.T) {
	st := &State{Fingerprint: "old"}
	err := st.Verify("new")
	var me *MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("want *MismatchError, got %v", err)
	}
	if me.Got != "old" || me.Want != "new" {
		t.Errorf("mismatch fields: %+v", me)
	}
	if err := st.Verify("old"); err != nil {
		t.Errorf("matching fingerprint must verify: %v", err)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	digest := sha256.Sum256([]byte("index"))
	opt := mapper.Options{MaxErrors: 4, MaxLocations: 100}

	base := FingerprintDigest(digest, opt, "selector=dp")
	if base != FingerprintDigest(digest, opt, "selector=dp") {
		t.Error("fingerprint is not deterministic")
	}
	// Defaulted and explicit-default options must hash identically: a
	// resume that spells out the defaults is not a different run.
	if FingerprintDigest(digest, opt.WithDefaults(), "selector=dp") != base {
		t.Error("explicit default options changed the fingerprint")
	}

	o := opt
	o.MaxErrors = 5
	for name, got := range map[string]string{
		"options": FingerprintDigest(digest, o, "selector=dp"),
		"extras":  FingerprintDigest(digest, opt, "selector=coral"),
		"index":   FingerprintDigest(sha256.Sum256([]byte("index2")), opt, "selector=dp"),
	} {
		if got == base {
			t.Errorf("changing %s did not change the fingerprint", name)
		}
	}
}

// TestFingerprintGolden pins the fingerprint to the strings the last
// binary with configurable retries computed (commit 8bdaa10), so a
// checkpoint it wrote against an index artifact still resumes.
func TestFingerprintGolden(t *testing.T) {
	var digest [32]byte
	for i := range digest {
		digest[i] = byte(i)
	}
	if got, want := FingerprintDigest(digest, mapper.Options{}), "854082a359baa8713a0b94ba91c286e2"; got != want {
		t.Errorf("default options: fingerprint %s, want %s", got, want)
	}
	opt := mapper.Options{MaxErrors: 4, Prefilter: mapper.PrefilterGateKeeper}
	if got, want := FingerprintDigest(digest, opt, "selector=repute-dp", "batch=256"), "b661197acd14654f515364c9931c8687"; got != want {
		t.Errorf("options and extras: fingerprint %s, want %s", got, want)
	}
}

func TestSaveIsAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, &State{Version: Version, Fingerprint: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, &State{Version: Version, Fingerprint: "b", Batches: 1}); err != nil {
		t.Fatal(err)
	}
	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fingerprint != "b" {
		t.Errorf("overwrite lost the newer state: %+v", st)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file left behind after rename")
	}
}

func TestCheckDir(t *testing.T) {
	t.Run("good", func(t *testing.T) {
		if err := CheckDir(t.TempDir()); err != nil {
			t.Fatalf("CheckDir on a writable temp dir: %v", err)
		}
	})

	t.Run("missing", func(t *testing.T) {
		err := CheckDir(filepath.Join(t.TempDir(), "nope"))
		var de *DirError
		if !errors.As(err, &de) {
			t.Fatalf("err = %v, want *DirError", err)
		}
		if !os.IsNotExist(de.Err) {
			t.Errorf("cause = %v, want not-exist", de.Err)
		}
	})

	t.Run("not a directory", func(t *testing.T) {
		file := filepath.Join(t.TempDir(), "plain")
		if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		err := CheckDir(file)
		var de *DirError
		if !errors.As(err, &de) {
			t.Fatalf("err = %v, want *DirError", err)
		}
		if de.Dir != file {
			t.Errorf("DirError.Dir = %q, want %q", de.Dir, file)
		}
	})

	t.Run("probe leaves no residue", func(t *testing.T) {
		dir := t.TempDir()
		if err := CheckDir(dir); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 0 {
			t.Errorf("probe left %d entries behind", len(ents))
		}
	})
}

// TestSaveSyncsDirectory can't force a power cut, but it can at least
// pin that Save still works when the parent directory requires an
// explicit open to sync — and that a Save into a directory removed
// out from under it fails rather than silently dropping durability.
func TestSaveSyncsDirectory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := Save(path, &State{Version: Version, Fingerprint: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}

	gone := filepath.Join(dir, "sub")
	if err := os.Mkdir(gone, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(gone); err != nil {
		t.Fatal(err)
	}
	if err := Save(filepath.Join(gone, "run.ckpt"), &State{Version: Version}); err == nil {
		t.Error("Save into a removed directory succeeded")
	}
}
