package analysis_test

import (
	"testing"

	"ndss/internal/analysis"
	"ndss/internal/analysis/atest"
)

// Each fixture directory is type-checked as a package under the import
// path the analyzer's scope expects, then diagnostics are matched
// against the fixture's `// want` comments line by line.

func TestFSIODiscipline(t *testing.T) {
	atest.Run(t, analysis.FSIODiscipline, "testdata/fsiodiscipline", "ndss/internal/index")
}

func TestCtxFlow(t *testing.T) {
	atest.Run(t, analysis.CtxFlow, "testdata/ctxflow", "ndss/internal/search")
}

func TestCtxFlowShard(t *testing.T) {
	atest.Run(t, analysis.CtxFlow, "testdata/ctxflow_shard", "ndss/internal/shard")
}

func TestCtxFlowTrace(t *testing.T) {
	atest.Run(t, analysis.CtxFlow, "testdata/ctxflow_trace", "ndss/internal/shard")
}

// The root package holds the engine, so the cancellation contract
// covers it; it is matched exactly, never as a prefix of the module.
func TestCtxFlowRoot(t *testing.T) {
	atest.Run(t, analysis.CtxFlow, "testdata/ctxflow_root", "ndss")
	atest.Run(t, analysis.CtxFlow, "testdata/ctxflow_rootexact", "ndss/internal/dedup")
}

func TestMetricHygiene(t *testing.T) {
	atest.Run(t, analysis.MetricHygiene, "testdata/metrichygiene", "ndss/internal/server")
}

func TestMetricHygieneHeaders(t *testing.T) {
	atest.Run(t, analysis.MetricHygiene, "testdata/metrichygiene_headers", "ndss/internal/shard")
}

func TestGuardedBy(t *testing.T) {
	atest.Run(t, analysis.GuardedBy, "testdata/guardedby", "ndss/internal/shard")
}

func TestErrDiscard(t *testing.T) {
	atest.Run(t, analysis.ErrDiscard, "testdata/errdiscard", "ndss/cmd/fix")
}

func TestDirectiveSuppression(t *testing.T) {
	atest.Run(t, analysis.FSIODiscipline, "testdata/directive", "ndss/internal/index")
}

// Out-of-scope packages must produce no diagnostics no matter what the
// code does.
func TestScopeGating(t *testing.T) {
	atest.Run(t, analysis.FSIODiscipline, "testdata/scopegate", "ndss/internal/window")
}

func TestByName(t *testing.T) {
	got, bad := analysis.ByName([]string{"guardedby", "ctxflow"})
	if bad != "" || len(got) != 2 || got[0].Name != "guardedby" || got[1].Name != "ctxflow" {
		t.Fatalf("ByName(guardedby,ctxflow) = %v, %q", got, bad)
	}
	if got, bad := analysis.ByName([]string{"nosuch"}); got != nil || bad != "nosuch" {
		t.Fatalf("ByName(nosuch) = %v, %q; want nil, nosuch", got, bad)
	}
}
