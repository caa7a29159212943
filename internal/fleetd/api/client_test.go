package api

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestStreamHostileInput serves malformed progress streams to
// Client.Stream: each must end in an error promptly, and fn must see
// only the well-formed lines before the bad one.
func TestStreamHostileInput(t *testing.T) {
	const (
		status = `{"type":"status","status":{"id":"job-1","state":"running","done":0,"total":2}}` + "\n"
		event  = `{"type":"event","seq":1,"event":{"kind":"job_start","job":0}}` + "\n"
		done   = `{"type":"done","seq":1,"state":"done","fingerprint":"sha256:00"}` + "\n"
	)
	cases := []struct {
		name string
		body string
		good int // lines fn may see, all before the bad one
	}{
		{"non-JSON line", status + event + "this is not json\n" + event + done, 2},
		{"line over the 1 MiB cap", status + `{"type":"event","seq":1,"error":"` + strings.Repeat("x", 1<<20) + `"}` + "\n" + done, 1},
		{"no done line", status + event, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/x-ndjson")
				_, _ = w.Write([]byte(tc.body))
			}))
			defer hs.Close()

			var seen []StreamLine
			type result struct {
				last StreamLine
				err  error
			}
			out := make(chan result, 1)
			go func() {
				last, err := NewClient(hs.URL).Stream(context.Background(), "job-1", func(line StreamLine) error {
					seen = append(seen, line)
					return nil
				})
				out <- result{last, err}
			}()
			select {
			case res := <-out:
				if res.err == nil {
					t.Fatalf("Stream returned no error (terminal %+v)", res.last)
				}
				if len(seen) != tc.good {
					t.Fatalf("fn saw %d lines, want the %d before the bad one: %+v", len(seen), tc.good, seen)
				}
				if seen[0].Type != StreamStatus {
					t.Fatalf("first line delivered is %+v, want the status line", seen[0])
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Stream hung on hostile input")
			}
		})
	}
}
