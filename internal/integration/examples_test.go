package integration_test

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestExamplesRun builds and executes every example program end to end —
// the "runnable examples" deliverable is verified, not assumed.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples run in -short mode skipped")
	}
	_, thisFile, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate repo root")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(thisFile)))

	examples := map[string][]string{
		"quickstart": {"sum of 4 x (1..250) = 125500"},
		"gwas":       {"genome-wide association scan"},
		"weather":    {"3 cycles match the serial stencil cell for cell"},
		"fog":        {"recovered offloads"},
		"kmeans":     {"fitted 3 clusters"},
		// The monitor halves dt three times and never aborts.
		"steering": {
			"step  3: dt=1.00 residual=    8.00  -> adjust",
			"step  5: dt=0.50 residual=    7.20  -> adjust",
			"step  8: dt=0.25 residual=    5.63  -> adjust",
			"simulation completed under steering",
		},
		"remote": {"hybrid local/remote workflow"},
	}
	for name, markers := range examples {
		name, markers := name, markers
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", "run", "./examples/"+name)
			cmd.Dir = root
			done := make(chan struct{})
			var out []byte
			var err error
			go func() {
				out, err = cmd.CombinedOutput()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Minute):
				_ = cmd.Process.Kill()
				<-done
				t.Fatalf("example %s timed out", name)
			}
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", name, err, out)
			}
			for _, marker := range markers {
				if !strings.Contains(string(out), marker) {
					t.Fatalf("example %s output missing %q:\n%s", name, marker, out)
				}
			}
		})
	}
}
