package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// read or one tick share Trace; Parent is the enclosing span's ID (0 at
// the root). Times are nanoseconds since the tracer started.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the span name's prefix up to the first dot: the package the
// call goes into ("tsdb.SnapshotDir" belongs to tsdb).
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// valid and records nothing, which is how untraced runs call it.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	trace uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newTrace returns a fresh trace ID for one read or tick.
func (t *tracer) newTrace() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace++
	return t.trace
}

// begin opens a span and returns its ID.
func (t *tracer) begin(trace uint64, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(trace uint64, parent int, name string, fn func(id int)) {
	id := t.begin(trace, parent, name)
	fn(id)
	t.end(id)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes the spans as JSON lines to path, creating its
// directory.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
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

// selfTimes returns, per layer, the summed self time of its spans in
// seconds: each span's duration minus the part of it its child spans
// cover. Children may overlap each other (a hedged fetch); their union
// is what is subtracted.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		self := s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		out[s.layer()] += float64(self) / 1e9
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	flush := func() {
		if curHi > curLo {
			total += curHi - curLo
		}
	}
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if curHi < 0 || a > curHi {
			flush()
			curLo, curHi = a, b
			continue
		}
		if b > curHi {
			curHi = b
		}
	}
	flush()
	return total
}

// durationsMs returns the durations, in ms, of the spans named name.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// printSelfTimes writes the per-layer self-time table.
func printSelfTimes(w io.Writer, self map[string]float64) {
	layers := make([]string, 0, len(self))
	var total float64
	for l, v := range self {
		layers = append(layers, l)
		total += v
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "per-layer self time (span minus child spans):\n")
	for _, l := range layers {
		fmt.Fprintf(w, "  %-12s %9.3f s  %5.1f%%\n", l, self[l], 100*ratio(self[l], total))
	}
}
