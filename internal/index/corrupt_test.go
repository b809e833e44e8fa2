package index

import (
	"encoding/json"
	"errors"
	"strings"

	"ndss/internal/fsio"
	"os"
	"path/filepath"
	"testing"
)

// Corruption-injection tests for the on-disk format's integrity
// checking.

// buildOnDisk builds a small index and returns its directory plus the
// path of its segment file.
func buildOnDisk(t *testing.T) (string, string) {
	t.Helper()
	c := testCorpus(t, 30, 40, 100, 200, 61)
	dir := t.TempDir()
	if _, err := Build(c, dir, BuildOptions{K: 2, Seed: 5, T: 10}); err != nil {
		t.Fatal(err)
	}
	return dir, filepath.Join(dir, segmentName(0))
}

// flipByteAt flips one byte of a file in place.
func flipByteAt(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

func TestCleanIndexPassesIntegrity(t *testing.T) {
	dir, _ := buildOnDisk(t)
	ix, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := ix.VerifyIntegrity(); err != nil {
		t.Fatalf("clean index failed integrity: %v", err)
	}
}

// TestCorruptDirectoryRejectedAtOpen flips a byte of the last
// function's hashes column, then of its starts column: the directory
// checksum covers both.
func TestCorruptDirectoryRejectedAtOpen(t *testing.T) {
	for _, col := range []string{"hashes", "starts"} {
		dir, file := buildOnDisk(t)
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		funcs := rawSegment(t, data)
		last := funcs[len(funcs)-1]
		off := int64(last.dirOff) + 8*int64(len(last.hashes))/2
		if col == "starts" {
			off = int64(last.dirOff+last.dirLen()) - 6
		}
		flipByteAt(t, file, off)
		if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "directory checksum mismatch") {
			t.Fatalf("corrupt %s column: %v, want a directory checksum mismatch", col, err)
		}
	}
}

func TestCorruptPostingsCaughtByVerify(t *testing.T) {
	dir, file := buildOnDisk(t)
	// Flip a byte early in the postings region: Open still succeeds
	// (only the directory is validated eagerly) but VerifyIntegrity
	// must catch it.
	flipByteAt(t, file, segHeaderLen+8)
	ix, err := Open(dir)
	if err != nil {
		t.Fatalf("open after postings corruption should succeed (lazy check): %v", err)
	}
	defer ix.Close()
	if err := ix.VerifyIntegrity(); err == nil {
		t.Fatal("VerifyIntegrity missed postings corruption")
	}
}

// TestCorruptZoneMapRejectedAtOpen flips the high byte of a zone map's
// first entry, so its first text ids descend. The zone maps lie in the
// region only VerifyIntegrity checksums, but Open loads them for the
// probes and must reject one their binary search cannot trust.
func TestCorruptZoneMapRejectedAtOpen(t *testing.T) {
	dir := t.TempDir()
	if _, err := Build(testCorpus(t, 30, 40, 100, 50, 61), dir, BuildOptions{K: 2, Seed: 5, T: 5, ZoneMapStep: 4, LongListCutoff: 8}); err != nil {
		t.Fatal(err)
	}
	ix, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ff := ix.segs[0].funcs[0]
	ix.Close()
	if len(ff.zones) == 0 {
		t.Fatal("degenerate fixture: no zone maps")
	}
	if ff.zones[0].count < 2 {
		t.Fatal("degenerate fixture: a zone map of one entry")
	}
	flipByteAt(t, ff.path, ff.zoneOff(ff.zones[0])+3)
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "corrupt zone map") {
		t.Fatalf("want a corrupt zone map error at Open, got %v", err)
	}
}

// TestZoneParametersMismatchRejected: every zone map's place follows
// from the header's zone map step and long-list cutoff, which no
// checksum covers, so Open checks them against the manifest: a flipped
// header byte, and a manifest record that disagrees with an intact
// file, are both refused with an error naming the file.
func TestZoneParametersMismatchRejected(t *testing.T) {
	for _, off := range []int64{12, 16} {
		dir, file := buildOnDisk(t)
		flipByteAt(t, file, off)
		if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), file) || !strings.Contains(err.Error(), "manifest says") {
			t.Fatalf("header byte %d flipped: %v, want a mismatch with the manifest naming %s", off, err, file)
		}
	}
	dir, file := buildOnDisk(t)
	man, err := readManifest(fsio.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	man.Segments[0].Meta.LongListCutoff++
	data, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestFileName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), file) || !strings.Contains(err.Error(), "manifest says") {
		t.Fatalf("manifest cutoff off by one: %v, want a mismatch naming %s", err, file)
	}
}

func TestCorruptTrailerRejected(t *testing.T) {
	dir, file := buildOnDisk(t)
	st, err := os.Stat(file)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the last function's directory offset in the footer.
	flipByteAt(t, file, st.Size()-4-footerRowLen+2)
	if _, err := Open(dir); err == nil {
		t.Fatal("corrupt trailer should fail to open")
	}
}

func TestTruncatedFileRejected(t *testing.T) {
	dir, file := buildOnDisk(t)
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), file) {
		t.Fatalf("truncated file: %v, want an error naming %s", err, file)
	}
}

// TestFooterChecksumMismatchRejected: a manifest whose footer checksum
// differs from the segment file's — the file is intact, only the record
// disagrees — is refused with an error naming the file.
func TestFooterChecksumMismatchRejected(t *testing.T) {
	dir, file := buildOnDisk(t)
	man, err := readManifest(fsio.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	man.Segments[0].FooterCRC++
	data, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestFileName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir)
	if err == nil || !strings.Contains(err.Error(), file) || !strings.Contains(err.Error(), "torn or mixed build") {
		t.Fatalf("footer checksum mismatch: %v, want a torn-or-mixed-build error naming %s", err, file)
	}
}

// Manifest-era corruption tests: Open must cross-check the directory
// against the build manifest and reject torn or mixed-build states.

func TestManifestRoundTripAfterBuild(t *testing.T) {
	dir, _ := buildOnDisk(t)
	ix, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	man, err := readManifest(fsio.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if id := ix.BuildID(); id == "" || id != man.BuildID {
		t.Fatalf("committed build has build id %q, manifest %q", id, man.BuildID)
	}
	if len(man.Segments) != 1 || man.Segments[0].Name != segmentName(0) {
		t.Fatalf("fresh build should commit a single segment %s, got %+v", segmentName(0), man.Segments)
	}
	if st, err := os.Stat(filepath.Join(dir, man.Segments[0].Name)); err != nil || st.Size() != man.Segments[0].Size {
		t.Fatalf("manifest records a %d-byte segment file: %v, %v", man.Segments[0].Size, st, err)
	}
	if err := ix.VerifyIntegrity(); err != nil {
		t.Fatalf("clean index failed integrity: %v", err)
	}
}

func TestTruncatedManifestRejected(t *testing.T) {
	dir, _ := buildOnDisk(t)
	mpath := filepath.Join(dir, manifestFileName)
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mpath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("truncated manifest should fail to open")
	}
}

func TestManifestSizeMismatchRejected(t *testing.T) {
	dir, _ := buildOnDisk(t)
	mpath := filepath.Join(dir, manifestFileName)
	man, err := readManifest(fsio.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	man.Segments[0].Size += 16
	data, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mpath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir)
	if err == nil {
		t.Fatal("size mismatch against manifest should fail to open")
	}
	if !strings.Contains(err.Error(), "torn or mixed build") {
		t.Fatalf("diagnostic does not name the cause: %v", err)
	}
}

// TestMixedBuildRejected swaps the segment file in from a different
// build of the same shape: sizes may even coincide, but the checksums
// cannot, and Open must refuse to serve the mixture.
func TestMixedBuildRejected(t *testing.T) {
	dirA, fileA := buildOnDisk(t)
	// A different corpus with the same parameters.
	c := testCorpus(t, 30, 40, 100, 200, 62)
	dirB := t.TempDir()
	if _, err := Build(c, dirB, BuildOptions{K: 2, Seed: 5, T: 10}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dirB, segmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fileA, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dirA)
	if err == nil {
		t.Fatal("file from a different build should fail to open")
	}
	if !strings.Contains(err.Error(), "torn or mixed build") || !strings.Contains(err.Error(), fileA) {
		t.Fatalf("diagnostic does not name the cause and the file: %v", err)
	}
}

// TestOpenWithoutManifestFails: the manifest is the only description of
// an index, so a directory that lost it — even with every inverted file
// intact — is refused with the typed error instead of being served
// without a size/checksum cross-check, and no mutation touches it.
func TestOpenWithoutManifestFails(t *testing.T) {
	dir, _ := buildOnDisk(t)
	if err := os.Remove(filepath.Join(dir, manifestFileName)); err != nil {
		t.Fatal(err)
	}
	_, openErr := Open(dir)
	_, appendErr := Append(dir, testCorpus(t, 2, 40, 60, 200, 5))
	for op, err := range map[string]error{
		"open":    openErr,
		"append":  appendErr,
		"delete":  Delete(dir, []uint32{1}),
		"compact": Compact(dir),
	} {
		var noMan *NoManifestError
		if !errors.As(err, &noMan) {
			t.Fatalf("%s without a manifest: %v, want a *NoManifestError", op, err)
		}
		if noMan.Dir != dir || !strings.Contains(err.Error(), "rebuild") {
			t.Fatalf("%s: diagnostic %q does not name the directory and the remedy", op, err)
		}
	}
}

// TestParseManifestRejectsVersion2: a manifest of the per-function-file
// layout is refused with the version error, which says to rebuild.
func TestParseManifestRejectsVersion2(t *testing.T) {
	_, err := parseManifest([]byte(`{"format_version":2,"build_id":"x","meta":{"k":1,"t":2,"num_texts":1},` +
		`"segments":[{"name":"","meta":{"k":1,"t":2,"num_texts":1},"files":[{"name":"index.000","size":64}]}]}`))
	if err == nil || !strings.Contains(err.Error(), "format version 2") || !strings.Contains(err.Error(), "rebuild") {
		t.Fatalf("version-2 manifest: %v, want the format-version error saying to rebuild", err)
	}
}

func TestParseManifestRejectsVersion1(t *testing.T) {
	_, err := parseManifest([]byte(`{"format_version":1,"build_id":"x","meta":{"k":1,"t":2},"files":[{"name":"index.000","size":64}]}`))
	if err == nil || !strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("version-1 manifest: %v, want the format-version error", err)
	}
}
