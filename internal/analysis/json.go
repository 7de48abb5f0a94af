package analysis

import (
	"encoding/json"
	"io"
)

// JSON output schema, version 2. Downstream tooling (CI dashboards)
// may rely on these names; bump Version on any incompatible change.
//
//	{
//	  "version": 2,
//	  "checks": ["detflow", "guardedby"], // analyzers that ran
//	  "count": 2,
//	  "diagnostics": [
//	    {
//	      "check":   "detflow",            // analyzer name
//	      "file":    "internal/sim/x.go",  // module-root-relative, slash-separated
//	      "line":    42,                   // 1-based
//	      "column":  7,                    // 1-based, in bytes
//	      "message": "nondeterministic value ..."
//	    }
//	  ]
//	}
//
// checks lists the analyzers that ran, in execution order, so a clean
// report is distinguishable from a report that never ran a check.
// diagnostics is always present (empty array when clean) and sorted by
// (file, line, column, check).
//
// Version history: v1 lacked the checks field.

// jsonVersion is the current schema version.
const jsonVersion = 2

type jsonDiagnostic struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Message string `json:"message"`
}

type jsonReport struct {
	Version     int              `json:"version"`
	Checks      []string         `json:"checks"`
	Count       int              `json:"count"`
	Diagnostics []jsonDiagnostic `json:"diagnostics"`
}

// WriteJSON renders diagnostics in the versioned machine-readable
// schema above, with a trailing newline. checks names the analyzers
// that produced the report.
func WriteJSON(w io.Writer, checks []string, diags []Diagnostic) error {
	if checks == nil {
		checks = []string{}
	}
	rep := jsonReport{
		Version:     jsonVersion,
		Checks:      checks,
		Count:       len(diags),
		Diagnostics: make([]jsonDiagnostic, 0, len(diags)),
	}
	for _, d := range diags {
		rep.Diagnostics = append(rep.Diagnostics, jsonDiagnostic{
			Check:   d.Check,
			File:    d.Pos.Filename,
			Line:    d.Pos.Line,
			Column:  d.Pos.Column,
			Message: d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
