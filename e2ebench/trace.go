package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the id of
// the span that caused it (0 for a root); spans of one request share
// Req. Times are wall-clock Unix nanoseconds, so spans built from a
// server's own status timestamps line up with the client's.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
// It also accounts its own cost, which is the tracing overhead of the
// calls made from outside the program.
type recorder struct {
	mu    sync.Mutex
	spans []span
	cost  time.Duration
}

// add records a finished span and returns its id.
func (r *recorder) add(name string, parent int, req string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	t0 := time.Now()
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.UnixNano(), End: end.UnixNano()})
	r.cost += time.Since(t0)
	r.mu.Unlock()
	return id
}

// begin opens a span now, so that children recorded later carry a
// larger id than their parent; end closes it.
func (r *recorder) begin(name string, parent int, req string) int {
	if r == nil {
		return 0
	}
	now := time.Now()
	return r.add(name, parent, req, now, now)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	t0 := time.Now()
	r.mu.Lock()
	r.spans[id-1].End = t0.UnixNano()
	r.cost += time.Since(t0)
	r.mu.Unlock()
}

// wrap times fn as a span.
func (r *recorder) wrap(name string, parent int, fn func()) int {
	id := r.begin(name, parent, "")
	fn()
	r.end(id)
	return id
}

// overhead returns the time spent inside the recorder.
func (r *recorder) overhead() time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cost
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (overlapping children count
// once; a child sticking out of its parent counts only inside it).
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered int64
		cur := s.Start // covered up to here
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// validateSpans checks the span tree: ids are unique, every parent
// exists and was recorded before its child, a child shares its
// parent's request id and lies within its parent's interval, and no
// span ends before it starts.
func validateSpans(spans []span) error {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		if s.ID <= 0 {
			return fmt.Errorf("span %q: id %d is not positive", s.Name, s.ID)
		}
		if _, dup := byID[s.ID]; dup {
			return fmt.Errorf("span %q: duplicate id %d", s.Name, s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d %q ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			return fmt.Errorf("span %d %q: parent %d does not exist", s.ID, s.Name, s.Parent)
		case p.ID >= s.ID:
			return fmt.Errorf("span %d %q: parent %d recorded after it", s.ID, s.Name, s.Parent)
		case p.Req != s.Req:
			return fmt.Errorf("span %d %q: request %q differs from parent's %q", s.ID, s.Name, s.Req, p.Req)
		case s.Start < p.Start || s.End > p.End:
			return fmt.Errorf("span %d %q [%d,%d] lies outside parent %d [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Start, p.End)
		}
	}
	return nil
}

// layerSummary is the per-name roll-up written beside the spans.
type layerSummary struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func summarize(spans []span) map[string]layerSummary {
	self := selfTimes(spans)
	out := make(map[string]layerSummary)
	for _, s := range spans {
		l := out[s.Name]
		l.Count++
		l.TotalS += float64(s.dur()) / 1e9
		l.SelfS += float64(self[s.ID]) / 1e9
		out[s.Name] = l
	}
	return out
}

// writeTrace validates the spans and writes them, with the per-layer
// roll-up and the run's environment record, as one JSON document.
func writeTrace(path string, env map[string]any, spans []span) error {
	if err := validateSpans(spans); err != nil {
		return err
	}
	doc, err := json.MarshalIndent(map[string]any{
		"env":    env,
		"layers": summarize(spans),
		"spans":  spans,
	}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, doc, 0o644)
}
