// fleetd-client drives the fleet-as-a-service loop in one process: it
// starts an in-process arachnet-fleetd server, submits a sweep through
// the api.Client, follows the JSONL progress stream, and then shows
// the two determinism guarantees the daemon inherits from the engine —
// a resubmission answers from the (spec, seed) response cache with a
// bit-identical fingerprint, and a local batch run of the same spec
// fingerprints identically to the daemon's report.
//
// Against a real daemon the only change is the base URL:
//
//	arachnet-fleetd -addr 127.0.0.1:8040 &
//	arachnet-fleet -server http://127.0.0.1:8040 -verify fleet.json
package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"

	"repro/arachnet"
	"repro/internal/fleetd"
	"repro/internal/fleetd/api"
)

const spec = `{"seed": 404, "workers": 4, "vehicles": [
	{"name": "uplink", "engine": "slots", "pattern": "c2", "slots": 80000, "replicate": 4},
	{"name": "dense",  "engine": "slots", "pattern": "c4", "slots": 80000, "replicate": 4}
]}`

func main() {
	ctx := context.Background()

	// In-process daemon: the same Server the arachnet-fleetd command
	// wraps, mounted on a test listener.
	srv, err := fleetd.New(fleetd.Config{})
	if err != nil {
		fail(err)
	}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Drain(ctx)

	c := api.NewClient(hs.URL)
	sub, err := c.Submit(ctx, []byte(spec))
	if err != nil {
		fail(err)
	}
	fmt.Printf("submitted %s: %d vehicle jobs\n", sub.ID, sub.Jobs)

	// Stream shard lifecycle events as the pool works through the sweep.
	events := 0
	done, err := c.Stream(ctx, sub.ID, func(line api.StreamLine) error {
		if line.Type == api.StreamEvent {
			events++
		}
		return nil
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("streamed %d events; job ended %s\n", events, done.State)
	fmt.Printf("fingerprint %s\n\n", done.Fingerprint)

	// Determinism guarantee 1: resubmitting the same spec (any
	// formatting) hits the response cache with the same fingerprint.
	again, err := c.Submit(ctx, []byte(spec))
	if err != nil {
		fail(err)
	}
	fmt.Printf("resubmission: cached=%v fingerprint=%s\n", again.Cached, again.Fingerprint)

	// Determinism guarantee 2: a local batch run of the same (spec,
	// seed) fingerprints identically to the daemon's report.
	f, err := arachnet.UnmarshalFleetJSON([]byte(spec))
	if err != nil {
		fail(err)
	}
	local, err := f.Run(ctx)
	if err != nil {
		fail(err)
	}
	fmt.Printf("local batch run:        fingerprint=%s\n", local.Fingerprint())

	if !again.Cached || again.Fingerprint != done.Fingerprint || local.Fingerprint() != done.Fingerprint {
		fail(fmt.Errorf("fingerprints diverged across daemon, cache, and batch"))
	}
	fmt.Println("\nall three paths agree")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
