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
)

// goldenInvertedFiles pins the bytes of every segment file each write
// path produces over goldenCorpus: "<case>/<path under the index dir>
// <sha256>". Every writer lays lists out in hash order, so the sharded
// and external lines equal the build line. A deliberate format change regenerates the
// table from the failure output, together with docs/FORMAT.md.
const goldenInvertedFiles = `
build/seg-000000 c4aeed3b1964bfb2e3dda445dafb2ad8cbccded32f2799cf4f4f692b72ee55bd
sharded/seg-000000 c4aeed3b1964bfb2e3dda445dafb2ad8cbccded32f2799cf4f4f692b72ee55bd
external/seg-000000 c4aeed3b1964bfb2e3dda445dafb2ad8cbccded32f2799cf4f4f692b72ee55bd
segmented/seg-000000 a50657083f95884ed614416941f967dd91ce7d2e6875c42471423e6eec2fd68e
segmented/seg-000001 0ecc4b5f938148568f8c38feeee518fa799cbebb90763d91437d99a7422fb06f
compacted/seg-000000 2697ca4b331290ef02024a09150cb835502038148e0d1846a0ddd04fe3e268a1
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

// TestInvertedFilesGolden builds the fixed corpus through every writer —
// Build, BuildSharded, BuildExternal with recursive partitioning, and
// base + append + delete + compact — and compares each segment file
// with its checked-in hash. The small vocabulary makes lists long
// enough for the low cutoff to give them zone maps.
func TestInvertedFilesGolden(t *testing.T) {
	c := goldenCorpus(t)
	opts := BuildOptions{K: 3, Seed: 11, T: 12, ZoneMapStep: 8, LongListCutoff: 24}
	var got []string

	buildDir := filepath.Join(t.TempDir(), "ix")
	if _, err := Build(c, buildDir, opts); err != nil {
		t.Fatal(err)
	}
	got = hashInvertedFiles(t, got, "build", buildDir)

	shardedDir := filepath.Join(t.TempDir(), "ix")
	if err := BuildSharded(c, shardedDir, opts, 3); err != nil {
		t.Fatal(err)
	}
	got = hashInvertedFiles(t, got, "sharded", shardedDir)

	tok := filepath.Join(t.TempDir(), "c.tok")
	if err := corpus.WriteFile(c, tok); err != nil {
		t.Fatal(err)
	}
	r, err := corpus.OpenReader(tok)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	extOpts := opts
	extOpts.MemoryBudget = 2048 // partitions exceed it and split recursively
	extOpts.BatchTokens = 300
	extDir := filepath.Join(t.TempDir(), "ix")
	if _, err := BuildExternal(r, extDir, extOpts); err != nil {
		t.Fatal(err)
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
