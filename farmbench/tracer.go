package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into the program.
// Spans stay in memory until the run writes them out. A nil *tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	spans []span // span ID i is spans[i-1]
	t0    time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent (0 for a root) and returns its ID.
func (t *tracer) start(parent int64, name, farm string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Name: name, Farm: farm, Start: time.Now()})
	return int64(len(t.spans))
}

// end closes the span.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// drop discards a span that never completed its work, such as the
// chunk span opened after a farm's last commit.
func (t *tracer) drop(id int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Name = ""
	t.mu.Unlock()
}

// closed returns the completed spans.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.Name != "" && !s.End.IsZero() {
			out = append(out, s)
		}
	}
	return out
}

// durations returns every completed duration of the named span.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End.Sub(s.Start))/float64(time.Microsecond))
		}
	}
	return out
}

// write stores the spans as JSON lines, one span per line with times in
// microseconds since the tracer started.
func (t *tracer) write(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			ID     int64   `json:"id"`
			Parent int64   `json:"parent"`
			Name   string  `json:"name"`
			Farm   string  `json:"farm,omitempty"`
			Start  float64 `json:"start_us"`
			End    float64 `json:"end_us"`
		}{s.ID, s.Parent, s.Name, s.Farm, us(s.Start.Sub(t.t0)), us(s.End.Sub(t.t0))}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
