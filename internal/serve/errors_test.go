package serve

// TestErrorEnvelopeEveryCode is the catalogue test of the JSON error
// contract: every stable error code the service can emit is triggered
// through HTTP and asserted on (status, code, JSON content type).
// docs/SERVICE.md documents the same list; a new code belongs in both
// places.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"positres/internal/store"
)

func TestErrorEnvelopeEveryCode(t *testing.T) {
	// A started server for the request-shaped errors and the internal
	// trigger (a published result whose CSV vanished from disk).
	srv, ts := newTestServer(t, Config{})

	// An unstarted server: nothing drains its queue, so queue_full and
	// not_ready are deterministic (the job can never start running).
	idle, err := New(Config{DataDir: t.TempDir(), QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	idleTS := httptest.NewServer(idle.Handler())
	defer idleTS.Close()
	var queued CampaignStatus
	if resp := postJSON(t, idleTS.URL+"/v1/campaigns", tinyCampaign, &queued); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("idle submit = %d, want 202", resp.StatusCode)
	}

	// A drained server for the draining code.
	drained, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	dctx, dcancel := context.WithCancel(context.Background())
	drained.Start(dctx)
	dcancel()
	drained.Wait()
	drainedTS := httptest.NewServer(drained.Handler())
	defer drainedTS.Close()

	// internal: complete a campaign, then delete its published store out
	// from under the results handler.
	var done CampaignStatus
	if resp := postJSON(t, ts.URL+"/v1/campaigns?wait=1", tinyCampaign, &done); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit = %d, want 200", resp.StatusCode)
	}
	j, ok := srv.jobs.get(done.ID)
	if !ok || len(done.Results) != 1 {
		t.Fatalf("job %s: ok=%v results=%v", done.ID, ok, done.Results)
	}
	if err := os.Remove(filepath.Join(j.stateDir(), store.FileName(done.Results[0].Field, done.Results[0].Format))); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		code   string
		status int
		method string
		url    string
		body   string // empty = GET semantics unless method says otherwise
	}{
		{"bad_request", 400, "POST", ts.URL + "/v1/inject", `{not json`},
		{"unknown_format", 400, "POST", ts.URL + "/v1/inject", `{"format":"posit99","value":1.0,"bit":0}`},
		{"unknown_field", 400, "POST", ts.URL + "/v1/campaigns", `{"fields":["CESM/NOPE"],"formats":["posit8"]}`},
		{"not_found", 404, "GET", ts.URL + "/v1/campaigns/0123456789abcdef", ""},
		{"method_not_allowed", 405, "DELETE", ts.URL + "/v1/inject", ""},
		{"queue_full", 429, "POST", idleTS.URL + "/v1/campaigns", tinyCampaign},
		{"not_ready", 409, "GET", idleTS.URL + "/v1/campaigns/" + queued.ID + "/results", ""},
		{"draining", 503, "POST", drainedTS.URL + "/v1/campaigns", tinyCampaign},
		{"internal", 500, "GET", ts.URL + "/v1/campaigns/" + done.ID + "/results", ""},
	}
	for _, tc := range cases {
		t.Run(tc.code, func(t *testing.T) {
			var resp *http.Response
			var env errorBody
			switch tc.method {
			case "POST":
				resp = postJSON(t, tc.url, tc.body, &env)
			case "GET":
				resp = getJSON(t, tc.url, &env)
			default:
				req, err := http.NewRequest(tc.method, tc.url, nil)
				if err != nil {
					t.Fatal(err)
				}
				r, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Body.Close()
				if err := json.NewDecoder(r.Body).Decode(&env); err != nil {
					t.Fatal(err)
				}
				resp = r
			}
			if resp.StatusCode != tc.status {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			if env.Error.Code != tc.code {
				t.Errorf("code = %q, want %q", env.Error.Code, tc.code)
			}
			if env.Error.Message == "" {
				t.Error("empty error message")
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
		})
	}
}
