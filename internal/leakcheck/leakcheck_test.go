package leakcheck

import (
	"os"
	"strings"
	"testing"
	"time"
)

func TestCheckCleanPasses(t *testing.T) {
	if err := Check(2 * time.Second); err != nil {
		t.Fatalf("clean state reported as leak: %v", err)
	}
}

func TestCheckDetectsBlockedGoroutine(t *testing.T) {
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-release
	}()
	err := Check(50 * time.Millisecond)
	if err == nil {
		t.Fatal("blocked goroutine not reported")
	}
	if !strings.Contains(err.Error(), "TestCheckDetectsBlockedGoroutine") {
		t.Fatalf("leak report does not name the leaking frame:\n%v", err)
	}
	if !strings.Contains(err.Error(), "#goroutine-termination") {
		t.Fatalf("leak report does not point at the invariant doc:\n%v", err)
	}
	close(release)
	<-done
}

// A goroutine that exits during the grace window is not a leak: the
// retry loop must absorb asynchronous shutdown.
func TestCheckAbsorbsInFlightExit(t *testing.T) {
	release := make(chan struct{})
	go func() {
		<-release
	}()
	time.AfterFunc(20*time.Millisecond, func() { close(release) })
	if err := Check(2 * time.Second); err != nil {
		t.Fatalf("goroutine exiting within the grace window reported as leak: %v", err)
	}
}

func TestEnabledGate(t *testing.T) {
	old, had := os.LookupEnv("NDSS_LEAKCHECK")
	defer func() {
		if had {
			os.Setenv("NDSS_LEAKCHECK", old)
		} else {
			os.Unsetenv("NDSS_LEAKCHECK")
		}
	}()
	for val, want := range map[string]bool{
		"": true, "1": true, "yes": true,
		"0": false, "false": false, "off": false, "OFF": false,
	} {
		os.Setenv("NDSS_LEAKCHECK", val)
		if val == "" {
			os.Unsetenv("NDSS_LEAKCHECK")
		}
		if got := Enabled(); got != want {
			t.Errorf("Enabled() with NDSS_LEAKCHECK=%q = %v, want %v", val, got, want)
		}
	}
}
