package main

import (
	"sort"
	"strings"
	"time"
)

// span is one call the benchmark timed around a public entry point of
// the program. Its layer is the first dot-separated component of its
// name ("core.fronts.canneal" belongs to core).
type span struct {
	name       string
	parent     int // index of the enclosing span, -1 at top level
	start, end time.Duration
}

func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i >= 0 {
		return s.name[:i]
	}
	return s.name
}

// recorder keeps a serial run's spans in memory. Spans nest by call
// order: a span begun while another is open is its child.
type recorder struct {
	origin time.Time
	spans  []span
	open   []int
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.origin) }

func (r *recorder) parent() int {
	if len(r.open) == 0 {
		return -1
	}
	return r.open[len(r.open)-1]
}

// do runs fn inside a span called name.
func (r *recorder) do(name string, fn func() error) error {
	id := len(r.spans)
	r.spans = append(r.spans, span{name: name, parent: r.parent(), start: r.now()})
	r.open = append(r.open, id)
	err := fn()
	r.open = r.open[:len(r.open)-1]
	r.spans[id].end = r.now()
	return err
}

// add records a span whose bounds were measured elsewhere, such as the
// queue wait a server reports for a request, and returns its index.
// It is clipped to its parent's interval.
func (r *recorder) add(name string, parent int, start, end time.Duration) int {
	if parent >= 0 {
		p := r.spans[parent]
		start = max(start, p.start)
		end = min(max(end, start), p.end)
	}
	r.spans = append(r.spans, span{name: name, parent: parent, start: start, end: end})
	return len(r.spans) - 1
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover.
func selfTimes(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - covered(children[i], s.start, s.end)
	}
	return self
}

// covered returns the length of the union of the spans' intervals
// within [lo, hi].
func covered(spans []span, lo, hi time.Duration) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var total time.Duration
	cur := lo
	for _, s := range spans {
		start, end := max(s.start, cur), min(s.end, hi)
		if end > start {
			total += end - start
			cur = end
		}
	}
	return total
}

// attribution sums self times by layer and by span-name prefix over a
// traced run of the given wall time. Unattributed is what no layer's
// self time accounts for: the benchmark's own work between spans.
type attribution struct {
	wall         time.Duration
	byLayer      map[string]time.Duration
	byName       map[string]time.Duration
	unattributed time.Duration
}

func attribute(spans []span, wall time.Duration) attribution {
	a := attribution{wall: wall, byLayer: map[string]time.Duration{}, byName: map[string]time.Duration{}}
	var attributed time.Duration
	for i, self := range selfTimes(spans) {
		a.byLayer[spans[i].layer()] += self
		a.byName[spans[i].name] += self
		attributed += self
	}
	a.unattributed = wall - attributed
	return a
}

// prefix sums the self time of every span whose name starts with p.
func (a attribution) prefix(p string) time.Duration {
	var t time.Duration
	for name, d := range a.byName {
		if strings.HasPrefix(name, p) {
			t += d
		}
	}
	return t
}
