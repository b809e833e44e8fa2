package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// testEnv returns an Env writing into a buffer, with tiny corpora (the
// synWeb/synPile sizes already scale from Scale=1; tests shrink further
// by overriding the corpus cache).
func testEnv(t *testing.T) (*Env, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	e := NewEnv(t.TempDir(), 1, &buf)
	t.Cleanup(e.Close)
	return e, &buf
}

func TestRegistryComplete(t *testing.T) {
	// Every experiment from DESIGN.md's per-experiment index must be
	// registered.
	want := []string{
		"fig2ab", "fig2cd", "fig2eh", "fig2il",
		"fig3ab", "fig3c", "fig3d", "fig3ef", "fig3gh",
		"fig4ac", "fig4bd", "table1",
		"th1", "ab1", "ab2", "ab3", "zipf",
	}
	for _, id := range want {
		if _, ok := Find(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry holds %d experiments, want %d", len(All()), len(want))
	}
	// All() must be sorted and stable.
	ids := All()
	for i := 1; i < len(ids); i++ {
		if ids[i-1].ID >= ids[i].ID {
			t.Errorf("All() not sorted at %d: %s >= %s", i, ids[i-1].ID, ids[i].ID)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find should miss unknown ids")
	}
}

func TestTheorem1Experiment(t *testing.T) {
	e, buf := testEnv(t)
	ex, _ := Find("th1")
	if err := ex.Run(e); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Theorem 1") || !strings.Contains(out, "rel.err") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestAb3Experiment(t *testing.T) {
	if testing.Short() {
		t.Skip("brute force baseline is slow")
	}
	e, buf := testEnv(t)
	ex, _ := Find("ab3")
	if err := ex.Run(e); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Our index must report perfect recall against the Def. 2 truth.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "compact-window index") && !strings.Contains(line, "1.000") {
			t.Fatalf("index recall below 1.0:\n%s", out)
		}
	}
}

// TestFastExperimentsRun executes every experiment that completes
// quickly at test scale, checking each produces its table without
// error. The heavyweight ones (fig3c, fig3ef, fig4*, table1) are
// covered by cmd/ndss-bench runs.
func TestFastExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not short")
	}
	e, buf := testEnv(t)
	for _, id := range []string{"fig2ab", "fig2cd", "fig2eh", "fig2il", "zipf", "ab1"} {
		ex, ok := Find(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		before := buf.Len()
		if err := ex.Run(e); err != nil {
			t.Fatalf("%s failed: %v", id, err)
		}
		if buf.Len() <= before {
			t.Fatalf("%s produced no output", id)
		}
	}
	out := buf.String()
	for _, marker := range []string{"Fig 2(a-b)", "Fig 2(c-d)", "index size", "index time", "Zipf", "segment tree"} {
		if !strings.Contains(strings.ToLower(out), strings.ToLower(marker)) {
			t.Errorf("output missing %q", marker)
		}
	}
}

// TestFig3Experiment runs one query-path experiment end to end.
func TestFig3Experiment(t *testing.T) {
	if testing.Short() {
		t.Skip("query experiment is not short")
	}
	e, buf := testEnv(t)
	ex, _ := Find("fig3gh")
	if err := ex.Run(e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "total ms") {
		t.Fatalf("missing latency table:\n%s", buf.String())
	}
}

// TestFig3dSweeps: each Fig 3(d) row builds its own index at a lower
// list-length cutoff, so each defers more lists per query than the
// last.
func TestFig3dSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("query experiment is not short")
	}
	e, buf := testEnv(t)
	ex, _ := Find("fig3d")
	if err := ex.Run(e); err != nil {
		t.Fatal(err)
	}
	// Rows follow the header; the third column is long lists/query.
	_, table, _ := strings.Cut(buf.String(), "long lists/query")
	var long []float64
	for _, line := range strings.Split(table, "\n")[1:] {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			t.Fatalf("row %q: %v", line, err)
		}
		long = append(long, v)
	}
	if len(long) != 4 {
		t.Fatalf("parsed %d rows, want 4:\n%s", len(long), buf)
	}
	for i := 1; i < len(long); i++ {
		if long[i] <= long[i-1] {
			t.Errorf("long lists/query %v: row %d does not defer more than row %d — the sweep does not sweep\n%s", long, i, i-1, buf)
		}
	}
}

func TestQueryWorkloadShape(t *testing.T) {
	e, _ := testEnv(t)
	c := e.synWeb(1, 32000, 1)
	qs := queryWorkload(c, 10, 64, 32000, 0.1, 3)
	if len(qs) != 10 {
		t.Fatalf("got %d queries", len(qs))
	}
	for _, q := range qs {
		if len(q) != 64 {
			t.Fatalf("query length %d", len(q))
		}
	}
}

func TestCorpusCaching(t *testing.T) {
	e, _ := testEnv(t)
	a := e.synWeb(1, 32000, 1)
	b := e.synWeb(1, 32000, 1)
	if a != b {
		t.Fatal("corpus not cached")
	}
	if e.synWeb(1, 64000, 1) == a {
		t.Fatal("different vocab returned same corpus")
	}
}
