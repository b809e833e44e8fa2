package analysis_test

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestImportDirection pins the serving tier's one-way imports, search ←
// wire ← shard ← server: no engine package (search, index, hash, obs,
// window) reaches wire, shard or server, wire reaches neither shard nor
// server, and shard does not reach server. Tracing stays above the
// engine and off the wire: neither search nor wire reaches obs, so the
// engine times its stages and the wire carries those times, never a
// span list. It reads each package's
// transitive dependencies (the list go list -deps prints) with -e, so an
// inverted import is named even when it also closes a cycle.
func TestImportDirection(t *testing.T) {
	forbidden := map[string][]string{
		"search": {"wire", "shard", "server", "obs"},
		"index":  {"wire", "shard", "server"},
		"hash":   {"wire", "shard", "server"},
		"obs":    {"wire", "shard", "server"},
		"window": {"wire", "shard", "server"},
		"wire":   {"shard", "server", "obs"},
		"shard":  {"server"},
	}
	args := []string{"list", "-e", "-f", "{{.ImportPath}} {{join .Deps \" \"}}"}
	for pkg := range forbidden {
		args = append(args, "ndss/internal/"+pkg)
	}
	out, err := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), args...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	seen := 0
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		pkg := strings.TrimPrefix(fields[0], "ndss/internal/")
		deps := map[string]bool{}
		for _, d := range fields[1:] {
			deps[d] = true
		}
		for _, bad := range forbidden[pkg] {
			if deps["ndss/internal/"+bad] {
				t.Errorf("%s imports %s (directly or transitively); imports point search ← wire ← shard ← server", fields[0], bad)
			}
		}
		seen++
	}
	if seen != len(forbidden) {
		t.Fatalf("go list reported %d packages, want %d:\n%s", seen, len(forbidden), out)
	}
}
