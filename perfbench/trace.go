package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span is one recorded call at a layer boundary. Spans of one packet or
// request share ID; Parent indexes the enclosing span (-1 for a root).
type Span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
}

// layerTotals aggregates every span of one layer, sampled or not.
type layerTotals struct {
	calls int64
	total int64 // ns inside the layer's spans
	self  int64 // total minus the time covered by child spans
}

type openSpan struct {
	layer int
	id    uint64
	start int64
	child int64
	kept  int32 // index into spans, -1 when the tree is not sampled
}

// Recorder times nested layer boundaries on one goroutine. Every span
// is folded into per-layer totals; the full span tree of every
// sample-th root is also kept in memory and written out when the run
// ends.
type Recorder struct {
	names  []string
	base   time.Time
	layers []layerTotals
	stack  []openSpan
	spans  []Span
	sample uint64
	roots  uint64
	keep   bool
	// covered is the time inside root spans; violations counts spans
	// whose children summed to more than the span itself.
	covered    int64
	violations int64
}

// NewRecorder returns a recorder for the given layer names, keeping the
// span tree of every sample-th root (0 keeps none).
func NewRecorder(names []string, sample uint64) *Recorder {
	return &Recorder{names: names, base: time.Now(), layers: make([]layerTotals, len(names)), sample: sample}
}

func (r *Recorder) now() int64 { return int64(time.Since(r.base)) }

// Begin opens a span of layer. A zero id inherits the parent's, so the
// calls made on behalf of one packet or request share its id.
func (r *Recorder) Begin(layer int, id uint64) {
	parent := int32(-1)
	if n := len(r.stack); n == 0 {
		r.roots++
		r.keep = r.sample > 0 && r.roots%r.sample == 0
	} else {
		top := &r.stack[n-1]
		parent = top.kept
		if id == 0 {
			id = top.id
		}
	}
	s := openSpan{layer: layer, id: id, kept: -1}
	if r.keep {
		s.kept = int32(len(r.spans))
		r.spans = append(r.spans, Span{Name: r.names[layer], ID: id, Parent: parent})
	}
	s.start = r.now()
	r.stack = append(r.stack, s)
}

// End closes the innermost open span.
func (r *Recorder) End() {
	end := r.now()
	n := len(r.stack) - 1
	s := r.stack[n]
	r.stack = r.stack[:n]
	d := end - s.start
	self := d - s.child
	if self < 0 {
		r.violations++
	}
	t := &r.layers[s.layer]
	t.calls++
	t.total += d
	t.self += self
	if n > 0 {
		r.stack[n-1].child += d
	} else {
		r.covered += d
	}
	if s.kept >= 0 {
		r.spans[s.kept].Start = s.start
		r.spans[s.kept].End = end
	}
}

// Calls returns how many spans of layer closed.
func (r *Recorder) Calls(layer int) int64 { return r.layers[layer].calls }

// SelfNs is the mean self time of layer's spans in nanoseconds.
func (r *Recorder) SelfNs(layer int) float64 {
	t := r.layers[layer]
	return ratio(float64(t.self), float64(t.calls))
}

// TotalNs is the mean duration of layer's spans in nanoseconds.
func (r *Recorder) TotalNs(layer int) float64 {
	t := r.layers[layer]
	return ratio(float64(t.total), float64(t.calls))
}

// Residual is the share of wall that no root span covered.
func (r *Recorder) Residual(wall time.Duration) float64 {
	return ratio(float64(int64(wall)-r.covered), float64(wall))
}

// verify checks the recorder's own invariants: every span closed, and
// children never longer than their parent.
func (r *Recorder) verify(c *runCtx, what string) {
	c.check(len(r.stack) == 0, "%s: %d spans left open", what, len(r.stack))
	c.check(r.violations == 0, "%s: %d spans shorter than their children", what, r.violations)
}

// writeSpans writes the sampled span trees of the run as JSON.
func writeSpans(c *runCtx, recs map[string]*Recorder) error {
	if err := os.MkdirAll(c.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(c.traceDir, fmt.Sprintf("%s-seed%d.json", c.workload, c.seed))
	all := map[string][]Span{}
	for name, r := range recs {
		all[name] = r.spans
	}
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "trace spans written to %s\n", path)
	return nil
}
