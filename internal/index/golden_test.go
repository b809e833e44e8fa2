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

// goldenInvertedFiles pins the bytes of every inverted file each write
// path produces over goldenCorpus: "<case>/<path under the index dir>
// <sha256>". The hashes were recorded before the pipelined build, the
// one-pass generator and the counting scatter replaced their
// predecessors, so they prove those changes byte-identical and pin the
// format for later ones. Every writer lays lists out in hash order, so
// the external lines equal the build lines. A deliberate format change
// regenerates the table from the failure output, in the same PR as
// docs/FORMAT.md.
const goldenInvertedFiles = `
build/index.000 c7d33b0d0f1c4314d44b4f60883001b788c3ebb22c057a89723372b1fdbcf5b9
build/index.001 08f4ed97895e3e94d02220bf793382cf03d9ce34960f2dd463b18b64c4072599
build/index.002 a74737f461f57549885bfbe26dbd59051d255863c96ac2d382e50d144aa9468b
sharded/index.000 c7d33b0d0f1c4314d44b4f60883001b788c3ebb22c057a89723372b1fdbcf5b9
sharded/index.001 08f4ed97895e3e94d02220bf793382cf03d9ce34960f2dd463b18b64c4072599
sharded/index.002 a74737f461f57549885bfbe26dbd59051d255863c96ac2d382e50d144aa9468b
external/index.000 c7d33b0d0f1c4314d44b4f60883001b788c3ebb22c057a89723372b1fdbcf5b9
external/index.001 08f4ed97895e3e94d02220bf793382cf03d9ce34960f2dd463b18b64c4072599
external/index.002 a74737f461f57549885bfbe26dbd59051d255863c96ac2d382e50d144aa9468b
segmented/index.000 cd1862ce8a4a6702a39e1eeb3d162fc8b9a44b66a1e0852abac294467ebb891e
segmented/index.001 2b569890cad5bf031d6a451e65c3161cc39fc4b51dd61cf4bcd02ab3035b8712
segmented/index.002 1063930ae8b2b95515018fbdc0144d476542e506a039345ac6c224b6ac161660
segmented/seg-000001/index.000 f81820187b1a80454862ace8820aceddbb2194e538af0266514dc2dba7729706
segmented/seg-000001/index.001 cebf33a90bf1bc88d619c89a3ac60e39597ca906df17b69968d430467dfd4e3b
segmented/seg-000001/index.002 55e69163047375a0112a8ea389a12b61bd9c085075e52ee837fb40d205678e78
compacted/index.000 46cabb9989019da90da07f92eb7108ff3f3508c8b98a82985ccc72818e9e04ea
compacted/index.001 3acbeaa4f21fffbc2fd8dc3f6d37825f2c35d7f5994a6c1a6c3445ac7fe421f8
compacted/index.002 8c91067d7d653c78661c46a8b13bc247746d3c26523d1025cf11bd7332c4e5c7
`

var invertedFileName = regexp.MustCompile(`^index\.[0-9]{3}$`)

// hashInvertedFiles appends "<label>/<relative path> <sha256>" for every
// inverted file under dir, in path order.
func hashInvertedFiles(t *testing.T, out []string, label, dir string) []string {
	t.Helper()
	var lines []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !invertedFileName.MatchString(d.Name()) {
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
		t.Fatalf("%s: no inverted files under %s", label, dir)
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
// base + append + delete + compact — and compares each inverted file
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
		t.Fatalf("inverted files differ from the golden table; got:\n%s", have)
	}
}
