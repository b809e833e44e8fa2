package shard

import (
	"os"
	"testing"

	"ndss/internal/leakcheck"
)

// TestMain enforces goroutine termination (docs/INVARIANTS.md): a
// fan-out leg, hedge attempt, or health prober still running after the
// suite fails the binary. NDSS_LEAKCHECK=0 disables for one-off
// debugging.
func TestMain(m *testing.M) {
	os.Exit(leakcheck.Main(m))
}
