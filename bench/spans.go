package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Span is one aggregated trace span: every call a layer made inside one
// parent span, folded into a call count and a summed duration. Keeping
// one span per layer per 4096-reference chunk rather than one per call
// is what keeps a traced run's memory small.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Cell   string `json:"cell"`
	// Start and End bound the calls, in ns since the traced run began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	Count int64 `json:"count"`
	// Dur is the summed duration of the calls; Self is Dur minus the
	// summed Dur of the span's children.
	Dur  int64 `json:"dur_ns"`
	Self int64 `json:"self_ns"`

	children int64
}

// recorder keeps a traced run's spans in memory.
type recorder struct {
	t0    time.Time
	spans []Span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span under parent and returns its id.
func (r *recorder) begin(name, cell string, parent int) int {
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Name: name, Cell: cell, Start: r.now()})
	return len(r.spans)
}

// record fills span id's bounds, count and duration and charges the
// duration to its parent.
func (r *recorder) record(id int, start, end, count, dur int64) {
	s := &r.spans[id-1]
	s.Start, s.End, s.Count, s.Dur = start, end, count, dur
	if s.Parent > 0 {
		r.spans[s.Parent-1].children += dur
	}
}

// end closes span id after count units of work.
func (r *recorder) end(id int, count int64) {
	start, end := r.spans[id-1].Start, r.now()
	r.record(id, start, end, count, end-start)
}

// span records one already-timed interval under parent and returns its
// id.
func (r *recorder) span(name, cell string, parent int, start, end, count int64) int {
	id := r.begin(name, cell, parent)
	r.record(id, start, end, count, end-start)
	return id
}

// agg accumulates one layer's calls inside a parent until flushed.
type agg struct {
	start, end, dur, count int64
}

func (a *agg) add(t0, t1 int64) {
	if a.count == 0 {
		a.start = t0
	}
	a.end = t1
	a.dur += t1 - t0
	a.count++
}

// flush records a's calls as one span under parent and resets a.
func (r *recorder) flush(name, cell string, parent int, a *agg) {
	if a.count > 0 {
		r.record(r.begin(name, cell, parent), a.start, a.end, a.count, a.dur)
	}
	*a = agg{}
}

// sum totals the duration, self time and count of the spans with the
// given name whose cell passes keep.
func (r *recorder) sum(name string, keep func(cell string) bool) (dur, self, count int64) {
	for _, s := range r.spans {
		if s.Name == name && keep(s.Cell) {
			dur += s.Dur
			self += s.Dur - s.children
			count += s.Count
		}
	}
	return dur, self, count
}

// write stores the spans, self times derived, as JSON.
func (r *recorder) write(path string, seed uint64, refs int) error {
	for i := range r.spans {
		r.spans[i].Self = r.spans[i].Dur - r.spans[i].children
	}
	data, err := json.Marshal(struct {
		Seed  uint64 `json:"seed"`
		Refs  int    `json:"refs"`
		Spans []Span `json:"spans"`
	}{seed, refs, r.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
