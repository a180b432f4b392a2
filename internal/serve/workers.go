package serve

// The worker protocol: POST /v1/shards computes one bit-range shard
// and streams its trials back — as a packed binary frame
// (internal/wire, docs/WIRE.md) when the coordinator offers
// application/x-positres-trials in Accept, as text/csv otherwise —
// while POST /v1/workers registers a worker with a coordinator and
// GET /v1/workers lists the registered fleet (coordinator side).
// Every positserve process serves all three — any instance can act as
// coordinator, worker, or both — so a cluster is just N identical
// binaries pointed at each other.

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"time"

	"positres/internal/core"
	"positres/internal/numfmt"
	"positres/internal/sdrbench"
	"positres/internal/spec"
	"positres/internal/wire"
)

// Shard integrity and deadline headers of the worker protocol. The
// worker announces the exact row count up front and a CRC-32 (IEEE) of
// the CSV bytes as an HTTP trailer; the coordinator's client verifies
// both before a shard result may reach the store, so a truncated or
// corrupted body is a retryable shard failure, never silent data loss.
// The deadline header carries the coordinator watchdog's remaining
// budget so a chaos-delayed worker abandons computation in step with
// the coordinator timing it out.
const (
	// headerShardRows is the response header carrying the trial count.
	headerShardRows = "X-Positres-Rows"
	// trailerShardCRC is the response trailer carrying the CRC-32
	// (IEEE, lowercase hex) of the exact CSV bytes.
	trailerShardCRC = "X-Positres-Crc32"
	// headerShardDeadline is the request header carrying the
	// coordinator's remaining shard budget in milliseconds.
	headerShardDeadline = "X-Positres-Deadline-Ms"
)

// ShardRequest is the body of POST /v1/shards: one bit-range work
// unit. Spec must name exactly one field and one format — the shard's
// (field, codec) pair — and carries the campaign parameters (n, seed,
// trials_per_bit, keep_zeros) that make the computation deterministic
// wherever it runs.
type ShardRequest struct {
	// Spec is the single-pair campaign spec of the shard.
	Spec spec.CampaignSpec `json:"spec"`
	// BitLo is the inclusive lower bound of the bit range.
	BitLo int `json:"bit_lo"`
	// BitHi is the exclusive upper bound of the bit range.
	BitHi int `json:"bit_hi"`
}

// workerRegistration is the body of POST /v1/workers.
type workerRegistration struct {
	// URL is the worker's base URL as the coordinator should dial it.
	URL string `json:"url"`
}

// workerInfo is one entry of GET /v1/workers.
type workerInfo struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Busy    int    `json:"busy"`
	Fails   int    `json:"consecutive_failures"`
}

// workerList is the body of GET /v1/workers.
type workerList struct {
	Workers []workerInfo `json:"workers"`
}

// handleRunShard serves POST /v1/shards: validate the single-pair
// spec, take the field's dataset from the server's dataset cache
// (generated deterministically on first use, so consecutive shards of
// one field share it), compute the bit range through the same core
// engine a local run uses, and stream the trials. The response is
// byte-exact trial data, so the coordinator's store — and therefore
// the final CSVs — cannot distinguish local from remote computation.
func (s *Server) handleRunShard(w http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "invalid JSON body: %v", err)
		return
	}
	if len(req.Spec.Fields) != 1 || len(req.Spec.Formats) != 1 {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			"shard spec must name exactly one field and one format, got %d and %d",
			len(req.Spec.Fields), len(req.Spec.Formats))
		return
	}
	if verr := req.Spec.Validate(); verr != nil {
		writeError(w, http.StatusBadRequest, verr.Code, "%s", verr.Message)
		return
	}
	codec, err := numfmt.Lookup(req.Spec.Formats[0])
	if err != nil { // unreachable after Validate, but keep the guard cheap
		writeError(w, http.StatusBadRequest, codeUnknownFormat, "%v", err)
		return
	}
	if req.BitLo < 0 || req.BitHi > codec.Width() || req.BitLo >= req.BitHi {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			"bit range [%d, %d) is invalid for %d-bit format %s",
			req.BitLo, req.BitHi, codec.Width(), codec.Name())
		return
	}
	field, err := sdrbench.Lookup(req.Spec.Fields[0])
	if err != nil {
		writeError(w, http.StatusBadRequest, codeUnknownField, "%v", err)
		return
	}

	// Honor the coordinator's shard deadline: when the watchdog over
	// there has D ms left, computing past D here is wasted work — the
	// coordinator has already failed the attempt and re-dispatched.
	// A budget too large for time.Duration is clamped rather than
	// allowed to overflow into a negative, already-expired timeout.
	ctx := r.Context()
	if ms, err := strconv.ParseInt(r.Header.Get(headerShardDeadline), 10, 64); err == nil && ms > 0 {
		ms = min(ms, int64(math.MaxInt64/time.Millisecond))
		dctx, cancel := context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
		ctx = dctx
	}

	ds := s.datasets.Acquire(field, req.Spec.N, req.Spec.Seed)
	trials, err := core.RunRange(ctx, core.ConfigFromSpec(&req.Spec),
		codec, req.Spec.Fields[0], ds.Data, req.BitLo, req.BitHi)
	s.datasets.Release(ds)
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, "shard computation: %v", err)
		return
	}

	// Binary negotiation (docs/WIRE.md): a coordinator that offers
	// application/x-positres-trials in Accept gets a packed frame; any
	// other client gets the CSV envelope below, unchanged — an old
	// coordinator never sees a byte it cannot parse.
	if wire.Accepts(r.Header.Get("Accept")) {
		frame, ferr := wire.EncodeFrame(trials)
		if ferr != nil { // unreachable for engine output; fail loud, not silent
			writeError(w, http.StatusInternalServerError, codeInternal, "shard frame encode: %v", ferr)
			return
		}
		// The frame is self-delimiting and self-verifying (length
		// prefix + internal CRC-32), so it needs no trailer; the row
		// count header stays as a cheap cross-check.
		w.Header().Set(headerShardRows, strconv.Itoa(len(trials)))
		w.Header().Set("Content-Type", wire.ContentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
		w.WriteHeader(http.StatusOK)
		if _, werr := w.Write(frame); werr != nil {
			// The coordinator sees a truncated frame (ErrTruncated) and
			// retries the shard elsewhere.
			fmt.Fprintln(os.Stderr, "positserve: shard frame stream:", werr)
		}
		return
	}

	// Integrity envelope: exact row count as a header (known before the
	// body) and a CRC-32 of the CSV bytes as a declared trailer (known
	// only after). A fault anywhere on the wire breaks at least one of
	// them, and the client refuses to store the shard.
	w.Header().Set("Trailer", trailerShardCRC)
	w.Header().Set(headerShardRows, strconv.Itoa(len(trials)))
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	crc := crc32.NewIEEE()
	if err := core.WriteTrialsCSV(io.MultiWriter(w, crc), trials); err != nil {
		// Headers are committed; the coordinator sees a truncated CSV,
		// fails the integrity check, and retries the shard elsewhere.
		fmt.Fprintln(os.Stderr, "positserve: shard stream:", err)
		return // no trailer: the client treats its absence as truncation
	}
	w.Header().Set(trailerShardCRC, fmt.Sprintf("%08x", crc.Sum32()))
}

// handleRegisterWorker serves POST /v1/workers: add (idempotently)
// one worker to the dispatch pool.
func (s *Server) handleRegisterWorker(w http.ResponseWriter, r *http.Request) {
	var reg workerRegistration
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&reg); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "invalid JSON body: %v", err)
		return
	}
	u, err := url.Parse(reg.URL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			"worker url %q must be absolute (scheme + host)", reg.URL)
		return
	}
	s.cluster.add(reg.URL)
	writeJSON(w, http.StatusOK, s.cluster.list())
}

// handleListWorkers serves GET /v1/workers.
func (s *Server) handleListWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cluster.list())
}
