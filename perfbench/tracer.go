package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/trace"
)

// span is one recorded interval. Spans of one request share req; parent
// is 0 for a request's root. Start and End are offsets from the tracer's
// epoch in nanoseconds.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent"`
	Req    string           `json:"req"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the timed runs call the same code with tracing off.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active is an open span; End records it. Methods on a nil *active are
// no-ops.
type active struct {
	t     *tracer
	s     span
	start time.Time
}

// Begin opens a span under parent (nil for a request root, which gets a
// fresh request ID).
func (t *tracer) Begin(parent *active, name string) *active {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	now := time.Now()
	a := &active{t: t, start: now, s: span{ID: id, Name: name, Start: int64(now.Sub(t.epoch))}}
	if parent != nil {
		a.s.Parent, a.s.Req = parent.s.ID, parent.s.Req
	} else {
		a.s.Req = fmt.Sprintf("r%d", id)
	}
	return a
}

// Count attaches a counter to the span.
func (a *active) Count(key string, v int64) {
	if a == nil {
		return
	}
	if a.s.Counts == nil {
		a.s.Counts = map[string]int64{}
	}
	a.s.Counts[key] += v
}

func (a *active) End() {
	if a == nil {
		return
	}
	a.s.End = int64(time.Since(a.t.epoch))
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

// Reported records a span the program measured itself and returned in its
// metrics (server queue wait, executor steps, cluster trace nodes). Only
// durations come back, so such spans are laid out back to back from
// offset into their parent.
func (a *active) Reported(name string, offset, d time.Duration) *active {
	if a == nil {
		return nil
	}
	c := a.t.Begin(a, name)
	c.s.Start = a.s.Start + int64(offset)
	c.s.End = c.s.Start + int64(d)
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, c.s)
	a.t.mu.Unlock()
	return c
}

// ReportedTree records a program-built trace tree (trace.Span) under a.
func (a *active) ReportedTree(prefix string, sp *trace.Span, offset time.Duration) {
	if a == nil || sp == nil {
		return
	}
	d := time.Duration(sp.DurationMillis * float64(time.Millisecond))
	c := a.Reported(prefix+sp.Name, offset, d)
	var off time.Duration
	for _, ch := range sp.Children {
		c.ReportedTree(prefix, ch, off)
		off += time.Duration(ch.DurationMillis * float64(time.Millisecond))
	}
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		var iv [][2]int64
		for _, c := range kids[s.ID] {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, curLo, curHi int64
		for i, x := range iv {
			switch {
			case i == 0:
				curLo, curHi = x[0], x[1]
			case x[0] > curHi:
				covered += curHi - curLo
				curLo, curHi = x[0], x[1]
			case x[1] > curHi:
				curHi = x[1]
			}
		}
		if len(iv) > 0 {
			covered += curHi - curLo
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write saves the spans as JSON and prints the self-time table to w.
func (t *tracer) write(path string, w io.Writer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	buf, err := json.Marshal(t.spans)
	n := len(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "trace: %d spans written to %s; self time by span name:\n", n, path)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %12.3f ms\n", strings.TrimSpace(n), ms(self[n]))
	}
	return nil
}
