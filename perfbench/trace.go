package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the span that caused this one (0 for an operation's root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer does
// nothing; the benchmark never hands the program a tracer of its own
// (core.Options.Tracer would make synthesis uncacheable).
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  uint64
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// spanRef is an open span.
type spanRef struct {
	id, parent, op uint64
	name           string
	start          time.Time
}

// newOp returns a fresh operation identifier.
func (t *tracer) newOp() uint64 {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// begin opens a span named name under parent (nil for a root).
func (t *tracer) begin(op uint64, parent *spanRef, name string) *spanRef {
	if !t.on {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	ref := &spanRef{id: id, op: op, name: name, start: time.Now()}
	if parent != nil {
		ref.parent = parent.id
	}
	return ref
}

// end closes the span and returns its duration (0 when tracing is off).
func (t *tracer) end(ref *spanRef) time.Duration {
	if ref == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: ref.id, Parent: ref.parent, Op: ref.op, Name: ref.name,
		Start: ref.start.Sub(t.t0).Nanoseconds(), End: now.Sub(t.t0).Nanoseconds(),
	})
	t.mu.Unlock()
	return now.Sub(ref.start)
}

// selfByLayer returns, per layer (the span-name prefix before the first
// dot), the summed self time of the spans of every operation whose root
// span has one of the given names: each span's duration minus the part of
// it covered by its child spans.
func (t *tracer) selfByLayer(roots ...string) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	ops := map[uint64]bool{}
	for _, s := range t.spans {
		if s.Parent == 0 && slices.Contains(roots, s.Name) {
			ops[s.Op] = true
		}
	}
	var keep []span
	for _, s := range t.spans {
		if ops[s.Op] {
			keep = append(keep, s)
		}
	}
	return selfTimes(keep)
}

// accountedFrac is the share of the named operations' time that the
// layers' spans cover; the rest is the benchmark's own glue (root spans).
func accountedFrac(t *tracer, roots ...string) float64 {
	self := t.selfByLayer(roots...)
	var total time.Duration
	for _, d := range self {
		total += d
	}
	return ratio(float64(total-self["bench"]), float64(total))
}

func selfTimes(spans []span) map[string]time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		covered := coveredNs(s, children[s.ID])
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// coveredNs is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNs(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	for i := 1; i < len(ivs); i++ { // insertion sort: a span has few children
		for j := i; j > 0 && ivs[j].a < ivs[j-1].a; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var total, curA, curB int64
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return total + curB - curA
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
