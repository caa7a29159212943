package main

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/fleetd"
)

// TestMain runs the command itself when the test binary is re-executed
// with ARACHNET_FLEET_MAIN set, so a test can drive it as a process.
func TestMain(m *testing.M) {
	if os.Getenv("ARACHNET_FLEET_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestStdoutWriteErrorFails: a report that cannot be written (stdout
// on a full disk) fails the run with exit 1 — the text report, the
// -json report, and both again from a fleetd daemon in -server mode.
func TestStdoutWriteErrorFails(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("no /dev/full on this system")
	}
	defer full.Close()

	srv, err := fleetd.New(fleetd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		hs.Close()
	}()

	fleet := []string{"-engine", "slots", "-vehicles", "2", "-slots", "200"}
	for _, mode := range [][]string{
		nil,
		{"-json"},
		{"-server", hs.URL},
		{"-server", hs.URL, "-json"},
	} {
		args := append(append([]string{}, fleet...), mode...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "ARACHNET_FLEET_MAIN=1")
		cmd.Stdout = full
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 1 {
			t.Errorf("%q: err = %v, want exit status 1", mode, err)
		}
		if !strings.Contains(stderr.String(), "no space left on device") {
			t.Errorf("%q: stderr %q does not name the write error", mode, stderr.String())
		}
	}
}
