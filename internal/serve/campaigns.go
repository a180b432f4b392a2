package serve

// The campaign endpoints: POST /v1/campaigns submits a durable job to
// the bounded queue (202 + status URL, or 429 + Retry-After under
// backpressure), GET /v1/campaigns/{id} polls it, and
// GET /v1/campaigns/{id}/results streams one published CSV.
// "?wait=1" on submission couples the campaign to the request's
// context: the handler blocks until the job finishes, and if the
// client disconnects first the cancellation threads all the way down
// through the runner into core.RunRange, the completed shards stay in
// the job's pending stores, and a restart resumes the remainder.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"positres/internal/spec"
	"positres/internal/store"
	"positres/internal/wire"
)

// CampaignStatus is the body of GET /v1/campaigns/{id} (and of the
// submission response). It is exported so Client can return it typed
// and the top-level positres package can re-export it.
type CampaignStatus struct {
	// ID is the 16-hex-character campaign id.
	ID string `json:"id"`
	// State is one of queued, running, complete, partial, cancelled,
	// failed.
	State string `json:"state"`
	// CreatedAt is the submission time, RFC 3339 UTC.
	CreatedAt string `json:"created_at"`
	// StartedAt is when the job left the queue; empty while queued.
	StartedAt string `json:"started_at,omitempty"`
	// FinishedAt is when the job reached a terminal state.
	FinishedAt string `json:"finished_at,omitempty"`
	// Error carries the failure message of a "failed" job.
	Error string `json:"error,omitempty"`
	// Request is the validated campaign spec, defaults applied.
	Request spec.CampaignSpec `json:"request"`
	// Shards is the live shard tally.
	Shards ShardCounts `json:"shards"`
	// Results lists the published CSVs of a finished campaign.
	Results []ResultRef `json:"results,omitempty"`
	// StatusURL is the canonical polling URL for this campaign.
	StatusURL string `json:"status_url"`
}

// statusOf snapshots a job into its API representation.
func statusOf(j *job) CampaignStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := CampaignStatus{
		ID:        j.id,
		State:     j.state,
		CreatedAt: j.createdAt.UTC().Format(time.RFC3339),
		Error:     j.errMsg,
		Request:   j.req,
		Shards:    j.counts,
		Results:   append([]ResultRef(nil), j.results...),
		StatusURL: "/v1/campaigns/" + j.id,
	}
	if !j.startedAt.IsZero() {
		st.StartedAt = j.startedAt.UTC().Format(time.RFC3339)
	}
	if !j.finishedAt.IsZero() {
		st.FinishedAt = j.finishedAt.UTC().Format(time.RFC3339)
	}
	return st
}

// handleSubmitCampaign serves POST /v1/campaigns.
func (s *Server) handleSubmitCampaign(w http.ResponseWriter, r *http.Request) {
	if s.jobs.draining() {
		writeError(w, http.StatusServiceUnavailable, codeDraining, "server is shutting down")
		return
	}
	var req spec.CampaignSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "invalid JSON body: %v", err)
		return
	}
	j, verr := s.jobs.submit(req)
	if verr != nil {
		status := http.StatusBadRequest
		switch verr.Code {
		case codeQueueFull:
			status = http.StatusTooManyRequests
			// Derived from live queue occupancy (not a flat constant):
			// the same value is visible under "backpressure" in /metrics.
			w.Header().Set("Retry-After", strconv.Itoa(s.jobs.retryAfterSeconds()))
		case codeDraining:
			status = http.StatusServiceUnavailable
		case codeInternal:
			status = http.StatusInternalServerError
		}
		writeError(w, status, verr.Code, "%s", verr.Message)
		return
	}

	if r.URL.Query().Get("wait") == "1" {
		// Couple the campaign to this request: block until terminal,
		// and cancel the job if the client goes away first. The
		// stored shards survive either way.
		select {
		case <-j.done:
			writeJSON(w, http.StatusOK, statusOf(j))
		case <-r.Context().Done():
			j.cancelRun()
			<-j.done // runner drains and stores before the job finishes
		}
		return
	}
	w.Header().Set("Location", "/v1/campaigns/"+j.id)
	writeJSON(w, http.StatusAccepted, statusOf(j))
}

// handleCampaignStatus serves GET /v1/campaigns/{id}.
func (s *Server) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, statusOf(j))
}

// acceptsAggregate reports whether the Accept header asks for the
// JSON aggregate view of a result instead of the CSV rows. Only an
// explicit application/json (or +json) request switches — absent,
// wildcard and text/csv headers keep the original CSV behavior, so
// every pre-negotiation client sees byte-identical responses. A
// range with q=0 is a refusal, not a request, and is skipped.
func acceptsAggregate(accept string) bool {
	return wire.AcceptsMedia(accept, func(mt string) bool {
		return mt == "application/json" || strings.HasSuffix(mt, "+json")
	})
}

// handleCampaignResults serves GET /v1/campaigns/{id}/results —
// one (field, format) result under content negotiation. The default
// (and any text/csv Accept) streams the trial rows as CSV, rendered
// from the columnar store in block-bounded memory and byte-identical
// to core.WriteTrialsCSV; "Accept: application/json" answers with the
// positres-aggregate/v1 per-bit summary instead, O(bits) with no
// trial scan. Both query parameters may be omitted when the campaign
// published exactly one result.
func (s *Server) handleCampaignResults(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	st := statusOf(j)
	switch st.State {
	case jobComplete, jobPartial:
		// has results to serve
	case jobFailed, jobCancelled:
		writeError(w, http.StatusConflict, codeNotReady,
			"campaign %s finished %s; no results were published", st.ID, st.State)
		return
	default:
		writeError(w, http.StatusConflict, codeNotReady,
			"campaign %s is %s; results are published on completion", st.ID, st.State)
		return
	}
	if len(st.Results) == 0 {
		writeError(w, http.StatusConflict, codeNotReady,
			"campaign %s published no results (all shards failed)", st.ID)
		return
	}

	field, format := r.URL.Query().Get("field"), r.URL.Query().Get("format")
	var ref *ResultRef
	switch {
	case field == "" && format == "" && len(st.Results) == 1:
		ref = &st.Results[0]
	case field != "" && format != "":
		for i := range st.Results {
			if st.Results[i].Field == field && st.Results[i].Format == format {
				ref = &st.Results[i]
				break
			}
		}
	default:
		writeError(w, http.StatusBadRequest, codeBadRequest,
			"campaign %s has %d results; select one with ?field=...&format=...", st.ID, len(st.Results))
		return
	}
	if ref == nil {
		writeError(w, http.StatusNotFound, codeNotFound,
			"campaign %s has no published result for field %q format %q", st.ID, field, format)
		return
	}

	rd, err := store.Open(filepath.Join(j.stateDir(), store.FileName(ref.Field, ref.Format)))
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, "open result: %v", err)
		return
	}
	defer func() {
		if cerr := rd.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "positserve: result close:", cerr)
		}
	}()
	if acceptsAggregate(r.Header.Get("Accept")) {
		writeJSON(w, http.StatusOK, rd.Doc())
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if rerr := rd.RenderCSV(w); rerr != nil {
		// Headers are committed; all we can do is log the broken pipe.
		fmt.Fprintln(os.Stderr, "positserve: result stream:", rerr)
	}
}

// lookupJob resolves the {id} path value, writing the JSON error
// itself when the id is malformed or unknown.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	if !validJobID(id) {
		writeError(w, http.StatusNotFound, codeNotFound, "malformed campaign id %q", id)
		return nil, false
	}
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound, "no campaign %q", id)
		return nil, false
	}
	return j, true
}
