// Package trace feeds wall-clock values into report rows: the golden
// test pins one detflow finding here and one suppressed one.
package trace

import (
	"time"

	"demo/internal/report"
)

func Seed(t *report.Table) {
	t.Row(uint64(time.Now().UnixNano())) // the golden finding
}

func Instrumented(t *report.Table, start time.Time) {
	//ptlint:allow detflow instrumentation only; suppressed in golden output
	t.Row(time.Since(start))
}
