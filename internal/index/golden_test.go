package index

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"ndss/internal/corpus"
	"ndss/internal/fsio"
)

// goldenInvertedFiles pins the bytes of every segment file each write
// path produces over goldenCorpus: "<case>/<path under the index dir>
// <sha256>". Every writer lays lists out in hash order, so the external
// line equals the build line. A deliberate format change regenerates
// the table from the failure output, together with docs/FORMAT.md.
const goldenInvertedFiles = `
build/seg-000000 36bffcff1bb12a1cb6a8976fc4cf9cdfc8562e9b1ff260daf054ac7a7cca3d64
external/seg-000000 36bffcff1bb12a1cb6a8976fc4cf9cdfc8562e9b1ff260daf054ac7a7cca3d64
segmented/seg-000000 a06ab5543c1a67864cbe55ad5ffa46a5630eeacc76d53a21654198dab5adcfd3
segmented/seg-000001 a1d25f0bcf85daf9534302cb482710f41e21bac535ffb0c9ccdd855a23dc8f10
compacted/seg-000000 eb29c2a35d84d7b12ad45c33012b705b22d07ef8b6c131aaac2862a182220134
`

var segmentFileName = regexp.MustCompile(`^seg-[0-9]{6}$`)

// hashInvertedFiles appends "<label>/<relative path> <sha256>" for every
// segment file under dir, in path order.
func hashInvertedFiles(t *testing.T, out []string, label, dir string) []string {
	t.Helper()
	var lines []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !segmentFileName.MatchString(d.Name()) {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(data)
		lines = append(lines, label+"/"+filepath.ToSlash(rel)+" "+hex.EncodeToString(sum[:]))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatalf("%s: no segment files under %s", label, dir)
	}
	sort.Strings(lines)
	return append(out, lines...)
}

func goldenCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	return testCorpus(t, 40, 30, 140, 60, 101)
}

// goldenExternalOpts is opts with a budget that splits goldenCorpus into
// at least three BuildExternal batches.
func goldenExternalOpts(opts BuildOptions) BuildOptions {
	opts.Parallelism, opts.MemoryBudget = 1, 12<<10
	return opts
}

// TestInvertedFilesGolden builds the fixed corpus through every writer —
// Build, BuildExternal over several batches, and base + append + delete
// + compact — and compares each segment file with its checked-in hash.
// The small vocabulary makes lists long enough for the low cutoff to
// give them zone maps.
func TestInvertedFilesGolden(t *testing.T) {
	c := goldenCorpus(t)
	opts := BuildOptions{K: 3, Seed: 11, T: 12, ZoneMapStep: 8, LongListCutoff: 24}
	var got []string

	buildDir := filepath.Join(t.TempDir(), "ix")
	if _, err := Build(c, buildDir, opts); err != nil {
		t.Fatal(err)
	}
	got = hashInvertedFiles(t, got, "build", buildDir)

	batches := &batchCountFS{FS: fsio.OS}
	extOpts := goldenExternalOpts(opts)
	extOpts.FS = batches
	extDir := filepath.Join(t.TempDir(), "ix")
	if _, err := BuildExternal(corpusReader(t, c), extDir, extOpts); err != nil {
		t.Fatal(err)
	}
	if batches.n.Load() < 3 {
		t.Fatalf("the external build built %d batch indexes, want at least 3", batches.n.Load())
	}
	got = hashInvertedFiles(t, got, "external", extDir)

	segDir := filepath.Join(t.TempDir(), "ix")
	base, extra := corpus.New(nil), corpus.New(nil)
	for id := 0; id < c.NumTexts(); id++ {
		if id < 28 {
			base.Append(c.Text(uint32(id)))
		} else {
			extra.Append(c.Text(uint32(id)))
		}
	}
	if _, err := Build(base, segDir, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := Append(segDir, extra); err != nil {
		t.Fatal(err)
	}
	if err := Delete(segDir, []uint32{5, 31}); err != nil {
		t.Fatal(err)
	}
	got = hashInvertedFiles(t, got, "segmented", segDir)
	if err := Compact(segDir); err != nil {
		t.Fatal(err)
	}
	got = hashInvertedFiles(t, got, "compacted", segDir)

	if have := strings.Join(got, "\n"); have != strings.TrimSpace(goldenInvertedFiles) {
		t.Fatalf("segment files differ from the golden table; got:\n%s", have)
	}
}
