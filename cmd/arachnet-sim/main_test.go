package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with ARACHNET_SIM_MAIN set, so a test can drive it as a process.
func TestMain(m *testing.M) {
	if os.Getenv("ARACHNET_SIM_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestStdoutWriteErrorFails: a report that cannot be written (stdout
// on a full disk) fails the run with exit 1, for both engines.
func TestStdoutWriteErrorFails(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("no /dev/full on this system")
	}
	defer full.Close()
	for _, args := range [][]string{
		{"-engine", "slots", "-slots", "300"},
		{"-engine", "network", "-duration", "10", "-report", "10"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "ARACHNET_SIM_MAIN=1")
		cmd.Stdout = full
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 1 {
			t.Errorf("%q: err = %v, want exit status 1", args, err)
		}
		if !strings.Contains(stderr.String(), "no space left on device") {
			t.Errorf("%q: stderr %q does not name the write error", args, stderr.String())
		}
	}
}

// TestNetworkRunsWholeDuration: the network engine's last step ends at
// -duration even when -report does not divide it, as the slots engine
// runs its remainder.
func TestNetworkRunsWholeDuration(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-engine", "network", "-duration", "150", "-report", "100")
	cmd.Env = append(os.Environ(), "ARACHNET_SIM_MAIN=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v; stdout:\n%s", err, out)
	}
	var final string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "slots=") {
			final = line
		}
	}
	if !strings.HasPrefix(final, "slots=150 ") {
		t.Fatalf("final stats %q, want slots=150; stdout:\n%s", final, out)
	}
}
