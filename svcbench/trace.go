package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer during the traced replay. Spans of
// one replayed request share Req; Parent is the enclosing span (0 for the
// request's root). Derived spans are not timed here: they lay out time a
// solver reported about itself (multigrid per-level smoothing) inside the
// span of the call that reported it.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Class   string `json:"class"`
	Counter int    `json:"counter"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// sctx is the position in a trace a call is made from. The zero value
// (nil tracer) records nothing, which is the untraced replay.
type sctx struct {
	t       *tracer
	req     int
	class   string
	counter int
	parent  int
}

func (c sctx) now() int64 { return int64(time.Since(c.t.epoch)) }

// begin opens a child span and returns its context and closer.
func (c sctx) begin(name string) (sctx, func()) {
	if c.t == nil {
		return c, func() {}
	}
	start := c.now()
	c.t.mu.Lock()
	id := len(c.t.spans) + 1
	c.t.spans = append(c.t.spans, span{ID: id, Parent: c.parent, Req: c.req, Class: c.class,
		Counter: c.counter, Name: name, Start: start})
	c.t.mu.Unlock()
	child := c
	child.parent = id
	return child, func() {
		end := c.now()
		c.t.mu.Lock()
		c.t.spans[id-1].End = end
		c.t.mu.Unlock()
	}
}

// do runs fn inside a span.
func (c sctx) do(name string, fn func()) {
	_, end := c.begin(name)
	fn()
	end()
}

// derive records consecutive derived children of the current span,
// starting at start, one per (name, duration) pair.
func (c sctx) derive(start int64, parts []derivedPart) {
	if c.t == nil {
		return
	}
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	for _, p := range parts {
		if p.ns <= 0 {
			continue
		}
		id := len(c.t.spans) + 1
		c.t.spans = append(c.t.spans, span{ID: id, Parent: c.parent, Req: c.req, Class: c.class,
			Counter: c.counter, Name: p.name, Start: start, End: start + p.ns, Derived: true})
		start += p.ns
	}
}

type derivedPart struct {
	name string
	ns   int64
}

// selfTimes returns every span's duration minus the part of it that its
// children cover (the union of their intervals).
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, lo, hi := int64(0), int64(-1), int64(-1)
		for _, c := range cs {
			if c.Start > hi {
				covered += hi - lo
				lo, hi = c.Start, c.End
			} else if c.End > hi {
				hi = c.End
			}
		}
		covered += hi - lo
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// attribute splits one request's wall time among layers: every instant of
// the root span goes to the innermost spans open at that instant, shared
// equally when several run at once (sweep fan-out). The parts sum to the
// root's duration, so nothing is counted twice.
func attribute(spans []span) map[string]int64 {
	var cuts []int64
	for _, s := range spans {
		cuts = append(cuts, s.Start, s.End)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	kids := map[int][]int{}
	for i, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], i)
	}
	out := map[string]int64{}
	active := make([]bool, len(spans))
	var inner []int
	for k := 0; k+1 < len(cuts); k++ {
		a, b := cuts[k], cuts[k+1]
		if b == a {
			continue
		}
		for i, s := range spans {
			active[i] = s.Start <= a && s.End >= b
		}
		inner = inner[:0]
		for i, s := range spans {
			if !active[i] {
				continue
			}
			leaf := true
			for _, c := range kids[s.ID] {
				if active[c] {
					leaf = false
					break
				}
			}
			if leaf {
				inner = append(inner, i)
			}
		}
		for _, i := range inner {
			out[spans[i].Name] += (b - a) / int64(len(inner))
		}
	}
	return out
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
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
