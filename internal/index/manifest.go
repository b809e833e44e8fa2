package index

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"time"

	"ndss/internal/fsio"
)

// The build manifest (index.manifest) is the root of truth for an index
// directory: it names the set of immutable segments the index is made
// of, and for every segment its one file's size and footer checksum as
// written. Open cross-checks the directory against the manifest, so an
// index assembled from a mix of builds — the signature of a non-atomic
// rebuild interrupted partway — is rejected with a diagnostic instead of
// silently serving wrong matches.
//
// Every build produces an immutable segment, one file holding the k
// inverted files; Append adds a new segment file plus an atomically
// renamed manifest instead of rewriting the index, deletes are
// per-segment tombstone bitmaps, and compaction merges the segment set
// back into one. Format version 3 made a segment one file; it is the
// only version this build reads or writes, and an index of an older
// version must be rebuilt. The manifest is the only description of an
// index, so a directory without one is refused (*NoManifestError).

const (
	manifestFileName      = "index.manifest"
	manifestFormatVersion = 3

	// manifestTmpPattern names in-progress manifest replacements;
	// sweepSegments removes leftovers of interrupted commits.
	manifestTmpPattern = manifestFileName + ".tmp-*"
)

// ManifestTombstone records a segment's tombstone bitmap file: deleted
// texts are masked out of every read of that segment until compaction
// drops their postings entirely.
type ManifestTombstone struct {
	Name    string `json:"name"`
	Deleted int    `json:"deleted"`
	CRC     uint32 `json:"crc32"`
}

// ManifestSegment is one immutable segment of the index: a segment file
// in the index directory holding the k inverted files built over a
// consecutive run of text ids. Size and FooterCRC repeat the file's own
// length and footer checksum, so Open matches file to manifest from
// bytes it already reads, while a full re-read is still available via
// VerifyIntegrity. A segment's texts occupy the global id range starting
// at the sum of the NumTexts of the segments before it.
type ManifestSegment struct {
	Name      string             `json:"name"`
	Meta      Meta               `json:"meta"`
	Size      int64              `json:"size"`
	FooterCRC uint32             `json:"footer_crc32"`
	Tomb      *ManifestTombstone `json:"tombstone,omitempty"`
}

// Manifest is the on-disk index manifest. Meta aggregates the segment
// set (NumTexts and TotalTokens are sums; the id space is the
// concatenation of the segments in order).
type Manifest struct {
	FormatVersion int               `json:"format_version"`
	BuildID       string            `json:"build_id"`
	CreatedUnix   int64             `json:"created_unix"`
	Meta          Meta              `json:"meta"`
	Segments      []ManifestSegment `json:"segments,omitempty"`
}

// NoManifestError reports a directory that holds no index.manifest:
// not an index at all, or one written before manifests existed. Nothing
// else describes which files make up an index or what they must
// contain, so such a directory is never opened or mutated.
type NoManifestError struct {
	Dir string
}

func (e *NoManifestError) Error() string {
	return fmt.Sprintf("index: %s has no %s, so it is not an index this build can verify: rebuild it", e.Dir, manifestFileName)
}

// CommitUnconfirmedError reports a mutation whose commit rename went
// through — of the manifest (append, delete) or of the staged directory
// (build, compaction): the new build is what every later Open sees —
// but whose final directory fsync failed, so durability across a power
// loss is unconfirmed. The mutation must not be retried: BuildID names
// the build that is now visible.
type CommitUnconfirmedError struct {
	BuildID string
	Err     error
}

func (e *CommitUnconfirmedError) Error() string {
	return fmt.Sprintf("index: build %s is committed and visible but its durability is unconfirmed (do not retry the mutation): %v", e.BuildID, e.Err)
}

func (e *CommitUnconfirmedError) Unwrap() error { return e.Err }

// MixedOptionsError reports a segment set whose members were built with
// different hash parameters. Serving such a set would sketch queries
// with one hash family and match them against lists built with another,
// silently producing wrong results, so Open rejects it.
type MixedOptionsError struct {
	Segment string // segment whose options diverge
	Got     Meta   // the diverging segment's build options
	Want    Meta   // the manifest's aggregate build options
}

func (e *MixedOptionsError) Error() string {
	return fmt.Sprintf("index: segment %q built with k=%d seed=%d t=%d, segment set requires k=%d seed=%d t=%d: mixed build options",
		e.Segment, e.Got.K, e.Got.Seed, e.Got.T, e.Want.K, e.Want.Seed, e.Want.T)
}

// segmentName names the segment file a build writes for n = 0 and the
// nth appended one.
func segmentName(n int) string { return fmt.Sprintf("seg-%06d", n) }

// nextSegmentName picks a segment file name unused by the manifest.
func nextSegmentName(m *Manifest) string {
	used := make(map[string]bool, len(m.Segments))
	for _, s := range m.Segments {
		used[s.Name] = true
	}
	for n := 1; ; n++ {
		if name := segmentName(n); !used[name] {
			return name
		}
	}
}

// validEntryName reports whether name is safe to join onto the index
// directory: a single non-empty path component.
func validEntryName(name string) bool {
	if name == "" || name == "." || name == ".." {
		return false
	}
	return !strings.ContainsAny(name, `/\`)
}

// newBuildID returns a fresh random build identifier.
func newBuildID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to a time-derived ID; uniqueness per directory is
		// all the lifecycle needs.
		return fmt.Sprintf("t%016x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// newManifest assembles the manifest for a completed build: a single
// segment, the file just written.
func newManifest(meta Meta, sum segSum) Manifest {
	return Manifest{
		FormatVersion: manifestFormatVersion,
		BuildID:       newBuildID(),
		CreatedUnix:   time.Now().Unix(),
		Meta:          meta,
		Segments:      []ManifestSegment{{Name: segmentName(0), Meta: meta, Size: sum.size, FooterCRC: sum.footerCRC}},
	}
}

// recomputeAggregate refreshes the manifest's top-level Meta from its
// segment set: hash/build parameters from the first segment, NumTexts
// and TotalTokens summed in segment order.
func recomputeAggregate(m *Manifest) {
	if len(m.Segments) == 0 {
		return
	}
	agg := m.Segments[0].Meta
	agg.NumTexts = 0
	agg.TotalTokens = 0
	for _, s := range m.Segments {
		agg.NumTexts += s.Meta.NumTexts
		agg.TotalTokens += s.Meta.TotalTokens
	}
	m.Meta = agg
}

func writeManifest(fsys fsio.FS, dir string, m Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("index: marshal manifest: %w", err)
	}
	if err := fsio.WriteFileSync(fsys, filepath.Join(dir, manifestFileName), data); err != nil {
		return fmt.Errorf("index: write manifest: %w", err)
	}
	return nil
}

// commitManifest atomically replaces a live directory's manifest: the
// new manifest is written durably to a temp file and renamed over
// index.manifest, so at every instant the directory names exactly one
// consistent segment set — the old one or the new one, never a mix.
// A fresh build id is stamped: every committed segment-set change is a
// distinct build. A failure after the rename is reported as
// *CommitUnconfirmedError; any other error means the old manifest is
// still in place.
func commitManifest(fsys fsio.FS, dir string, m *Manifest) error {
	m.FormatVersion = manifestFormatVersion
	m.BuildID = newBuildID()
	m.CreatedUnix = time.Now().Unix()
	recomputeAggregate(m)
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("index: marshal manifest: %w", err)
	}
	// Write-to-temp, fsync, rename: readers see the old or the new
	// manifest, never a torn write.
	f, err := fsys.CreateTemp(dir, manifestTmpPattern)
	if err != nil {
		return fmt.Errorf("index: commit manifest: %w", err)
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, filepath.Join(dir, manifestFileName))
	}
	if err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("index: commit manifest: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return &CommitUnconfirmedError{BuildID: m.BuildID, Err: fmt.Errorf("sync index dir: %w", err)}
	}
	return nil
}

func readManifest(fsys fsio.FS, dir string) (*Manifest, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, manifestFileName))
	if fsio.NotExist(err) {
		return nil, &NoManifestError{Dir: dir}
	}
	if err != nil {
		return nil, fmt.Errorf("index: read manifest: %w", err)
	}
	return parseManifest(data)
}

// parseManifest decodes and validates manifest bytes. It is pure (no
// I/O) and total: any input — torn, corrupt, or adversarial — yields a
// validated *Manifest or an error, never a panic. Every accepted
// manifest round-trips stably through re-encoding.
func parseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("index: parse manifest (truncated or corrupt): %w", err)
	}
	if m.BuildID == "" {
		return nil, fmt.Errorf("index: manifest has no build id")
	}
	if m.FormatVersion != manifestFormatVersion {
		return nil, fmt.Errorf("index: manifest format version %d, this build understands %d: rebuild the index",
			m.FormatVersion, manifestFormatVersion)
	}
	if err := m.Meta.validate(); err != nil {
		return nil, err
	}
	if len(m.Segments) == 0 {
		return nil, fmt.Errorf("index: manifest names no segments")
	}
	var (
		sumTexts  int64
		sumTokens int64
		names     = make(map[string]bool, len(m.Segments))
	)
	for i, seg := range m.Segments {
		if !validEntryName(seg.Name) {
			return nil, fmt.Errorf("index: manifest segment %d has invalid name %q", i, seg.Name)
		}
		if names[seg.Name] {
			return nil, fmt.Errorf("index: manifest names segment %q twice", seg.Name)
		}
		names[seg.Name] = true
		if err := seg.Meta.validate(); err != nil {
			return nil, err
		}
		if seg.Meta.NumTexts < 0 || seg.Meta.TotalTokens < 0 {
			return nil, fmt.Errorf("index: manifest segment %q has negative text counts", seg.Name)
		}
		if seg.Meta.K != m.Meta.K || seg.Meta.Seed != m.Meta.Seed || seg.Meta.T != m.Meta.T {
			return nil, &MixedOptionsError{Segment: seg.Name, Got: seg.Meta, Want: m.Meta}
		}
		if tomb := seg.Tomb; tomb != nil {
			if !validEntryName(tomb.Name) {
				return nil, fmt.Errorf("index: manifest segment %q has invalid tombstone name %q",
					seg.Name, tomb.Name)
			}
			if tomb.Deleted <= 0 || tomb.Deleted > seg.Meta.NumTexts {
				return nil, fmt.Errorf("index: manifest segment %q tombstones %d of %d texts",
					seg.Name, tomb.Deleted, seg.Meta.NumTexts)
			}
		}
		sumTexts += int64(seg.Meta.NumTexts)
		sumTokens += int64(seg.Meta.TotalTokens)
	}
	if sumTexts > math.MaxUint32 {
		return nil, fmt.Errorf("index: manifest segment set spans %d texts, exceeding the id space", sumTexts)
	}
	if int64(m.Meta.NumTexts) != sumTexts || m.Meta.TotalTokens != sumTokens {
		return nil, fmt.Errorf("index: manifest aggregate (texts %d, tokens %d) does not match its segments (texts %d, tokens %d)",
			m.Meta.NumTexts, m.Meta.TotalTokens, sumTexts, sumTokens)
	}
	return &m, nil
}
