package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// span is one call the benchmark made into a layer: its name, the id of
// the datagram, packet or churn event it served, the index of the span
// that caused it (-1 for a root) and its monotonic start and end in ns.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanBuf is a bounded in-memory span recorder owned by one goroutine.
// Spans past the bound are counted and dropped, so recording never grows
// memory inside a measured window.
type spanBuf struct {
	spans   []span
	dropped int64
}

func newSpanBuf(n int) *spanBuf { return &spanBuf{spans: make([]span, 0, n)} }

// add records a finished span and returns its index (-1 when dropped).
func (b *spanBuf) add(name string, id int64, parent int32, start, end int64) int32 {
	if b == nil {
		return -1
	}
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return -1
	}
	b.spans = append(b.spans, span{Name: name, ID: id, Parent: parent, Start: start, End: end})
	return int32(len(b.spans) - 1)
}

// setParent links span i under parent p once p is known (a child such as
// an egress span closes before the lane span that contains it).
func (b *spanBuf) setParent(i, p int32) {
	if b != nil && i >= 0 {
		b.spans[i].Parent = p
	}
}

// share is one row of a workload's derived per-layer breakdown: the
// layer's self time per operation and its share of the operation.
type share struct {
	layer string
	value float64
	unit  string
	pct   float64
	how   string
}

// tracer gathers the run's spans and its derived breakdown.
type tracer struct {
	spans     []span
	dropped   int64
	breakdown []share
}

// buf hands out a span buffer of n spans, or nil when not tracing.
func (t *tracer) buf(n int) *spanBuf {
	if t == nil {
		return nil
	}
	return newSpanBuf(n)
}

// merge appends a goroutine's buffer, rebasing parent indexes.
func (t *tracer) merge(b *spanBuf) {
	if t == nil || b == nil {
		return
	}
	off := int32(len(t.spans))
	for _, s := range b.spans {
		if s.Parent >= 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
	t.dropped += b.dropped
}

// selfTimes returns each span name's summed self time (duration minus
// the part covered by its direct children) and span count.
func (t *tracer) selfTimes() (map[string]int64, map[string]int) {
	self := make(map[string]int64)
	count := make(map[string]int)
	for _, s := range t.spans {
		self[s.Name] += s.End - s.Start
		count[s.Name]++
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= s.End - s.Start
		}
	}
	return self, count
}

// printSelfTimes writes the per-span-name self-time table and the
// workload's derived per-operation breakdown.
func (t *tracer) printSelfTimes(w io.Writer, workload string) {
	self, count := t.selfTimes()
	names := make([]string, 0, len(self))
	var total int64
	for n, v := range self {
		names = append(names, n)
		total += v
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "  self time by span (%s, %d spans, %d dropped past the bound):\n", workload, len(t.spans), t.dropped)
	fmt.Fprintf(w, "    %-34s %9s %12s %12s %7s\n", "span", "count", "self ms", "self ns/span", "share")
	for _, n := range names {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(self[n]) / float64(total)
		}
		fmt.Fprintf(w, "    %-34s %9d %12.3f %12.0f %6.1f%%\n", n, count[n], float64(self[n])/1e6,
			float64(self[n])/float64(count[n]), pct)
	}
	if len(t.breakdown) > 0 {
		fmt.Fprintf(w, "  per-layer self time (%s):\n", workload)
		for _, s := range t.breakdown {
			fmt.Fprintf(w, "    %-38s %12.1f %-10s %6.1f%%  %s\n", s.layer, s.value, s.unit, s.pct, s.how)
		}
	}
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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
