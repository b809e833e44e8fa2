// Package leakcheck is a dependency-free goroutine-leak verifier for
// test binaries and the single enforcer of the goroutine-termination
// invariant (docs/INVARIANTS.md#goroutine-termination): after a
// package's tests finish, no query, prober, or compactor goroutine may
// still be running. A leaked goroutine in
// production is a slow OOM under sustained traffic; in tests it is
// cross-test contamination that the race detector happily schedules.
//
// Install it with one TestMain per suite:
//
//	func TestMain(m *testing.M) { os.Exit(leakcheck.Main(m)) }
//
// The check snapshots all goroutine stacks (runtime.Stack with all
// set), drops stanzas whose frames belong to the runtime, the testing
// framework, or other known-forever goroutines, and retries over a
// grace window so goroutines that are mid-exit (a just-canceled prober
// draining its ticker, an http keep-alive connection observing its
// server's close) are not misreported. Only goroutines still alive
// when the window closes fail the binary.
//
// Set NDSS_LEAKCHECK=0 to disable the check for one-off debugging
// (documented in README; the Makefile exports the knob).
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Enabled reports whether the leak check should run: on by default,
// disabled by NDSS_LEAKCHECK=0/false/off.
func Enabled() bool {
	switch strings.ToLower(os.Getenv("NDSS_LEAKCHECK")) {
	case "0", "false", "off":
		return false
	}
	return true
}

// Main wraps m.Run with a leak check and returns the exit code for
// os.Exit. A failing test suite returns its own code unmodified — leak
// output would only bury the real failure (and a failed test is
// entitled to have abandoned goroutines mid-flight).
func Main(m *testing.M) int {
	code := m.Run()
	if code != 0 || !Enabled() {
		return code
	}
	if err := Check(5 * time.Second); err != nil {
		fmt.Fprintf(os.Stderr, "leakcheck: %v\n", err)
		return 1
	}
	return code
}

// Check polls until no leaked goroutines remain or the grace window
// expires, then reports the survivors. The retry loop is what makes
// the check sound at all: goroutine exit is asynchronous with the
// channel receive or WaitGroup.Wait that proves shutdown, so a single
// snapshot taken "after" Close races with perfectly-behaved goroutines
// that simply have not been scheduled off the runqueue yet.
func Check(grace time.Duration) error {
	deadline := time.Now().Add(grace)
	delay := 1 * time.Millisecond
	var leaked []string
	for {
		leaked = leakedGoroutines()
		if len(leaked) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(delay)
		if delay < 100*time.Millisecond {
			delay *= 2
		}
	}
	return fmt.Errorf("%d goroutine(s) still running after the test suite (see docs/INVARIANTS.md#goroutine-termination):\n\n%s",
		len(leaked), strings.Join(leaked, "\n\n"))
}

// runtimeFrames identify goroutines owned by the runtime, the testing
// framework, or process-lifetime plumbing; a stanza containing any of
// them is never a leak.
var runtimeFrames = []string{
	"testing.Main(",
	"testing.tRunner(",
	"testing.(*T).Run(",
	"testing.(*M).",
	"testing.runTests(",
	"testing.runFuzzing(",
	"testing.runFuzzTests(",
	"runtime.goexit0",
	"runtime.gc",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.forcegchelper",
	"runtime.ReadTrace",
	"runtime/pprof.",
	"runtime/trace.",
	"os/signal.signal_recv",
	"os/signal.loop",
	"created by runtime",
}

// leakedGoroutines returns the stack stanzas of goroutines that belong
// to neither the runtime nor the testing framework. The first stanza —
// the goroutine running the check — is always skipped.
func leakedGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	stanzas := strings.Split(string(buf), "\n\n")
	var leaked []string
	for i, s := range stanzas {
		s = strings.TrimSpace(s)
		if s == "" || i == 0 { // stanza 0 is this goroutine
			continue
		}
		if isRuntimeStanza(s) {
			continue
		}
		leaked = append(leaked, s)
	}
	return leaked
}

func isRuntimeStanza(s string) bool {
	for _, f := range runtimeFrames {
		if strings.Contains(s, f) {
			return true
		}
	}
	// A goroutine parked in "runnable" or "running" with no interesting
	// frames can be the scheduler mid-handoff; the caller's retry loop
	// deals with transients, so no special case here.
	return false
}
