// Package artifact is the shared schema-tag discipline of the repo's
// JSON artifacts. Every machine-readable document the pipeline emits —
// positres-load/v1 soak reports, positres-telemetry/v1 snapshots,
// positlint-diag/v1 diagnostics and positres-aggregate/v1 campaign
// summaries — carries a stable "schema" field, and every reader must
// refuse a document tagged with anything else. Before this package each reader hand-rolled that comparison,
// which is exactly the kind of writer/reader drift ROADMAP's
// correctness-tooling section warned about; now the check (and the
// shape of its error) lives in one place.
package artifact

import (
	"fmt"
	"strings"
)

// CheckSchema verifies a document's schema tag against the one the
// reader expects. The match is exact — versioned tags like
// "positres-aggregate/v1" change only by bumping the suffix, and a reader
// for /v1 must refuse /v2 rather than guess. An empty got usually
// means the caller parsed a document that is not a tagged artifact at
// all; the error says so explicitly.
func CheckSchema(got, want string) error {
	if got == want {
		return nil
	}
	if strings.TrimSpace(got) == "" {
		return fmt.Errorf("artifact: document carries no schema tag, want %q", want)
	}
	return fmt.Errorf("artifact: schema %q, want %q", got, want)
}
