package fleetd

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/fleetd/api"
)

// TestStreamRawProtocol hits the stream endpoint without the client:
// the response is NDJSON, ?after=<seq> replays exactly the events
// newer than seq (the same lines a full stream carries) before the
// done line, and any format other than jsonl is refused with a 400
// before any stream bytes.
func TestStreamRawProtocol(t *testing.T) {
	_, c := startServer(t, Config{})
	ctx := context.Background()

	sub, err := c.Submit(ctx, []byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, sub.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	get := func(query string) *http.Response {
		t.Helper()
		resp, err := http.Get(c.Base() + "/v1/jobs/" + sub.ID + "/stream" + query)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	// read decodes a 200 NDJSON stream and checks its shape: a status
	// line, event lines, a done line. It returns the event lines.
	read := func(query string) []api.StreamLine {
		t.Helper()
		resp := get(query)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream%s: status %d", query, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("stream%s: content type %q", query, ct)
		}
		var lines []api.StreamLine
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var line api.StreamLine
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("stream%s: line %q: %v", query, sc.Bytes(), err)
			}
			lines = append(lines, line)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if len(lines) < 2 || lines[0].Type != api.StreamStatus || lines[len(lines)-1].Type != api.StreamDone {
			t.Fatalf("stream%s: shape wrong: %+v", query, lines)
		}
		events := lines[1 : len(lines)-1]
		for _, line := range events {
			if line.Type != api.StreamEvent {
				t.Fatalf("stream%s: unexpected mid-stream line %+v", query, line)
			}
		}
		return events
	}

	full := read("")
	if len(full) < 2 {
		t.Fatalf("need at least 2 events to test resume, got %d", len(full))
	}
	after := full[len(full)/2].Seq
	resumed := read("?after=" + strconv.FormatUint(after, 10))
	for _, line := range resumed {
		if line.Seq <= after {
			t.Fatalf("resume replayed seq %d, asked for after=%d", line.Seq, after)
		}
	}
	if want := full[len(full)/2+1:]; !reflect.DeepEqual(resumed, want) {
		t.Fatalf("resume mismatch:\n got %+v\nwant %+v", resumed, want)
	}

	for _, format := range []string{"binary", "morse"} {
		if resp := get("?format=" + format); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("format=%s answered %d, want 400", format, resp.StatusCode)
		}
	}
}
