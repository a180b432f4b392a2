// Package spec defines the one canonical description of a
// fault-injection campaign: CampaignSpec. Before this package existed
// the same dozen knobs lived in four divergent shapes — core.Config,
// runner.Config, positserve's JSON request body and positcampaign's
// flag set — and grew by field-by-field copying between them. Now the
// JSON body of POST /v1/campaigns *is* a CampaignSpec (the wire tags
// are unchanged, so existing clients keep working), positcampaign
// builds one from its flags, internal/runner consumes it directly,
// and core derives its engine Config from it in exactly one place
// (core.ConfigFromSpec). Validate applies the documented defaults and
// reports violations with the stable machine-readable error codes
// shared by the CLI and the HTTP error envelope.
package spec

import (
	"fmt"
	"time"

	"positres/internal/numfmt"
	"positres/internal/sdrbench"
)

// Stable validation error codes. These are API surface: positserve
// clients dispatch on them (they appear verbatim in the JSON error
// envelope's "code" field) and positcampaign prints them, so existing
// values never change meaning. docs/SERVICE.md is the catalogue.
const (
	// CodeBadRequest covers malformed values: missing required lists,
	// non-positive counts, unparseable durations, duplicate pairs.
	CodeBadRequest = "bad_request"
	// CodeUnknownField means a field key is not in the sdrbench
	// registry.
	CodeUnknownField = "unknown_field"
	// CodeUnknownFormat means a format name is not in the numfmt
	// registry.
	CodeUnknownFormat = "unknown_format"
)

// Error is a campaign-spec validation failure with a stable code.
// positserve maps it straight into its JSON error envelope;
// positcampaign prints it.
type Error struct {
	// Code is one of the Code* constants above.
	Code string `json:"code"`
	// Message is the human-readable explanation.
	Message string `json:"message"`
}

// Error implements the error interface.
func (e *Error) Error() string { return e.Message }

// badf builds a CodeBadRequest error.
func badf(format string, args ...interface{}) *Error {
	return &Error{Code: CodeBadRequest, Message: fmt.Sprintf(format, args...)}
}

// CampaignSpec is the canonical campaign description. It doubles as
// the body of POST /v1/campaigns — the JSON tags are the service's
// wire format and never change meaning — and as the persisted request
// in each job's job.json. Zero fields take the documented defaults
// when Validate runs, and the defaulted spec is echoed back (and
// persisted), so a campaign's identity is always explicit on disk.
//
// The campaign it describes is the cross product Fields × Formats:
// each pair becomes one durable (field, codec) campaign sharing N,
// Seed and every other knob.
type CampaignSpec struct {
	// Fields are sdrbench field keys, e.g. "CESM/CLOUD". Required.
	Fields []string `json:"fields"`
	// Formats are numfmt codec names, e.g. "posit16". Required.
	Formats []string `json:"formats"`
	// N is the synthetic element count per field; 0 means 100000.
	N int `json:"n"`
	// TrialsPerBit is the injections per bit position; 0 means the
	// paper's 313.
	TrialsPerBit int `json:"trials_per_bit"`
	// Seed drives every random choice (data generation included);
	// campaigns with equal seeds and inputs are bit-identical.
	// Defaults to 1.
	Seed uint64 `json:"seed"`
	// KeepZeros allows exactly-zero elements to be selected (their
	// relative error is recorded as catastrophic).
	KeepZeros bool `json:"keep_zeros"`
	// BitsPerShard is the durability granularity; 0 means 8.
	BitsPerShard int `json:"bits_per_shard"`
	// MaxRetries bounds per-shard retries after the first attempt;
	// nil means 2.
	MaxRetries *int `json:"max_retries,omitempty"`
	// ShardTimeout is the per-attempt watchdog as a Go duration
	// string; "" means "10m", "0s" disables it.
	ShardTimeout string `json:"shard_timeout"`
}

// Validate checks the spec against the field and codec registries and
// applies defaults in place. It returns nil on success; the returned
// *Error carries the stable code positserve serves and positcampaign
// prints. Validate is idempotent: validating an already-validated
// spec changes nothing.
func (s *CampaignSpec) Validate() *Error {
	if len(s.Fields) == 0 {
		return badf(`"fields" must name at least one dataset field`)
	}
	if len(s.Formats) == 0 {
		return badf(`"formats" must name at least one number format`)
	}
	if s.N == 0 {
		s.N = 100_000
	}
	if s.N < 0 {
		return badf(`"n" must be positive, got %d`, s.N)
	}
	if s.TrialsPerBit == 0 {
		s.TrialsPerBit = 313
	}
	if s.TrialsPerBit < 0 {
		return badf(`"trials_per_bit" must be positive, got %d`, s.TrialsPerBit)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.BitsPerShard == 0 {
		s.BitsPerShard = 8
	}
	if s.BitsPerShard < 0 {
		return badf(`"bits_per_shard" must be positive, got %d`, s.BitsPerShard)
	}
	if s.MaxRetries == nil {
		two := 2
		s.MaxRetries = &two
	}
	if *s.MaxRetries < 0 {
		return badf(`"max_retries" must be >= 0, got %d`, *s.MaxRetries)
	}
	if s.ShardTimeout == "" {
		s.ShardTimeout = "10m"
	}
	if d, err := time.ParseDuration(s.ShardTimeout); err != nil || d < 0 {
		return badf(`"shard_timeout" %q is not a valid non-negative Go duration`, s.ShardTimeout)
	}

	seen := map[string]bool{}
	for _, f := range s.Fields {
		if _, err := sdrbench.Lookup(f); err != nil {
			return &Error{Code: CodeUnknownField, Message: err.Error()}
		}
		for _, name := range s.Formats {
			codec, err := numfmt.Lookup(name)
			if err != nil {
				return &Error{Code: CodeUnknownFormat, Message: err.Error()}
			}
			key := f + " " + codec.Name()
			if seen[key] {
				return badf("duplicate (field, format) pair %s", key)
			}
			seen[key] = true
		}
	}
	return nil
}

// ShardTimeoutDuration returns the parsed per-attempt watchdog.
// Call it on a validated spec; an unparseable value (impossible after
// Validate) falls back to the 10m default.
func (s *CampaignSpec) ShardTimeoutDuration() time.Duration {
	d, err := time.ParseDuration(s.ShardTimeout)
	if err != nil {
		return 10 * time.Minute
	}
	return d
}

// MaxRetriesValue returns the retry budget, applying the default of 2
// when the field was never set.
func (s *CampaignSpec) MaxRetriesValue() int {
	if s.MaxRetries == nil {
		return 2
	}
	return *s.MaxRetries
}

// TotalShards returns how many durable shards the campaign cuts into:
// for every (field, format) pair, its codec width split into
// BitsPerShard-sized ranges. Call it on a validated spec; unknown
// formats (impossible after Validate) contribute zero.
func (s *CampaignSpec) TotalShards() int {
	per := s.BitsPerShard
	if per <= 0 {
		per = 8
	}
	total := 0
	for _, name := range s.Formats {
		codec, err := numfmt.Lookup(name)
		if err != nil {
			continue
		}
		total += len(s.Fields) * ((codec.Width() + per - 1) / per)
	}
	return total
}
