package lint

// Machine-readable diagnostics: `positlint -format json` emits a
// schema-tagged report that CI archives as an artifact (scripts/ci.sh)
// and downstream tooling can consume without scraping the text form.
// The schema follows the repo's artifact convention
// (positres-telemetry/v1, positres-aggregate/v1): a stable "schema" tag plus a flat issue
// list, so adding fields is backward-compatible and readers can
// dispatch on the tag.

import (
	"encoding/json"
	"fmt"
	"io"
)

// JSONSchema tags every -format json report.
const JSONSchema = "positlint-diag/v1"

// JSONReport is the -format json document.
type JSONReport struct {
	Schema string      `json:"schema"` // always JSONSchema
	Count  int         `json:"count"`  // len(Issues), for cheap gating
	Issues []JSONIssue `json:"issues"` // findings sorted by position
}

// JSONIssue is one diagnostic in wire form.
type JSONIssue struct {
	File    string `json:"file"`    // module-relative path
	Line    int    `json:"line"`    // 1-based line
	Col     int    `json:"col"`     // 1-based column
	Rule    string `json:"rule"`    // stable rule ID
	Message string `json:"message"` // human-readable explanation
	Fixable bool   `json:"fixable"` // true when `positlint -fix` can resolve it
}

// Report converts diagnostics to the wire document.
func Report(diags []Diagnostic) *JSONReport {
	rep := &JSONReport{Schema: JSONSchema, Count: len(diags), Issues: []JSONIssue{}}
	for _, d := range diags {
		rep.Issues = append(rep.Issues, JSONIssue{
			File:    d.Pos.Filename,
			Line:    d.Pos.Line,
			Col:     d.Pos.Column,
			Rule:    d.RuleID,
			Message: d.Message,
			Fixable: d.Fix != nil,
		})
	}
	return rep
}

// WriteJSON writes the diagnostics as an indented JSON report.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	raw, err := json.MarshalIndent(Report(diags), "", "  ")
	if err != nil {
		return fmt.Errorf("lint: encode report: %w", err)
	}
	_, err = w.Write(append(raw, '\n'))
	return err
}
