package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer on behalf of a
// request. Spans of one request share Req; Parent names the span that
// caused it.
type span struct {
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory, up to a fixed count; later spans are
// counted and dropped. A nil tracer records nothing.
type tracer struct {
	epoch time.Time
	spans []span
	n     atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

func (tr *tracer) now() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// record stores the span of name for request id, begun at t0 and ending now.
func (tr *tracer) record(id uint64, name, parent string, t0 time.Time) {
	if tr == nil {
		return
	}
	end := time.Now()
	i := tr.n.Add(1) - 1
	if i >= int64(len(tr.spans)) {
		return
	}
	tr.spans[i] = span{Req: id, Name: name, Parent: parent, Start: int64(t0.Sub(tr.epoch)), End: int64(end.Sub(tr.epoch))}
}

func (tr *tracer) kept() []span {
	return tr.spans[:min(tr.n.Load(), int64(len(tr.spans)))]
}

// summarize prints each span name's count and median duration, and for
// parent spans the median self time: duration minus the part of it the
// request's child spans cover (children of one request do not overlap).
func (tr *tracer) summarize(out io.Writer) {
	type key struct {
		req  uint64
		name string
	}
	dur := map[string][]float64{}
	child := map[key]int64{}
	for _, s := range tr.kept() {
		dur[s.Name] = append(dur[s.Name], float64(s.End-s.Start)/1e3)
		if s.Parent != "" {
			child[key{s.Req, s.Parent}] += s.End - s.Start
		}
	}
	self := map[string][]float64{}
	for _, s := range tr.kept() {
		if c, ok := child[key{s.Req, s.Name}]; ok {
			self[s.Name] = append(self[s.Name], float64(s.End-s.Start-c)/1e3)
		}
	}
	fmt.Fprintf(out, "spans: %d recorded, %d dropped\n", len(tr.kept()), tr.n.Load()-int64(len(tr.kept())))
	for _, name := range sortedKeys(dur) {
		fmt.Fprintf(out, "span %-28s n=%-7d p50 %10.2f us", name, len(dur[name]), median(dur[name]))
		if s, ok := self[name]; ok {
			fmt.Fprintf(out, "  self p50 %10.2f us", median(s))
		}
		fmt.Fprintln(out)
	}
}

// write stores the kept spans as JSON lines at path.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.kept() {
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
