package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"bufqos/internal/topology"
)

// TestPaperTwinMatchesRun checks that the paper-link twin, plain and
// traced, reproduces experiment.Run exactly on a short horizon,
// kernel event count included.
func TestPaperTwinMatchesRun(t *testing.T) {
	const horizon = 2.0
	for _, spec := range paperSchemes {
		want, events, err := realPaperRun(spec, 7, horizon, true)
		if err != nil {
			t.Fatal(err)
		}
		plain, _, err := newPaperTwin(spec, 7, horizon, nil)
		if err != nil {
			t.Fatal(err)
		}
		plain.s.RunUntil(horizon)
		if got := plain.result(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: plain twin %+v, experiment.Run %+v", spec, got, want)
		}
		if got := plain.s.Steps(); got != events {
			t.Errorf("%s: plain twin ran %d events, experiment.Run %d", spec, got, events)
		}
		rec := NewRecorder(simLayers, 16)
		tw, stop, err := newPaperTwin(spec, 7, horizon, rec)
		if err != nil {
			t.Fatal(err)
		}
		stepTraced(tw.s, stop, horizon, rec)
		if got := tw.result(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: traced twin %+v, experiment.Run %+v", spec, got, want)
		}
		if got := tw.s.Steps() - 1; got != events {
			t.Errorf("%s: traced twin ran %d events, experiment.Run %d", spec, got, events)
		}
		if tw.arrivals != plain.arrivals || rec.Calls(lLink) != plain.arrivals {
			t.Errorf("%s: arrivals traced %d, plain %d, link spans %d", spec, tw.arrivals, plain.arrivals, rec.Calls(lLink))
		}
		if rec.violations != 0 || len(rec.stack) != 0 {
			t.Errorf("%s: recorder violations %d, open spans %d", spec, rec.violations, len(rec.stack))
		}
	}
}

// TestTCPTwinMatchesSweep checks the tcp-sizing twin against
// sizing.Sweep on a short horizon.
func TestTCPTwinMatchesSweep(t *testing.T) {
	const horizon = 0.3
	want, err := realTCPCell(3, horizon)
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := newTCPTwin(tcpSeed(3), horizon, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain.s.RunUntil(horizon)
	if got := plain.cell(); !reflect.DeepEqual(got, want) {
		t.Errorf("plain twin %+v, sizing.Sweep %+v", got, want)
	}
	rec := NewRecorder(simLayers, 16)
	tw, stop, err := newTCPTwin(tcpSeed(3), horizon, rec)
	if err != nil {
		t.Fatal(err)
	}
	stepTraced(tw.s, stop, horizon, rec)
	got := tw.cell()
	got.Events--
	if !reflect.DeepEqual(got, want) {
		t.Errorf("traced twin %+v, sizing.Sweep %+v", got, want)
	}
	if rec.Calls(lAck) == 0 || rec.Calls(lDelivery) == 0 {
		t.Errorf("no ACK or delivery spans: %d, %d", rec.Calls(lAck), rec.Calls(lDelivery))
	}
}

// TestOpStreamSeeded checks the qosd-churn op stream is a function of
// the seed: identical for one seed, different across seeds, and that
// applying it directly to a fresh server reproduces the planned
// checksum.
func TestOpStreamSeeded(t *testing.T) {
	topo, err := topology.Generate("random?links=200,flows=1000,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	steps := []int{10, 20}
	a, err := genChurn(topo, 1, qosdLadder[:2], steps)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genChurn(topo, 1, qosdLadder[:2], steps)
	if err != nil {
		t.Fatal(err)
	}
	c, err := genChurn(topo, 2, qosdLadder[:2], steps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.clients {
		if !reflect.DeepEqual(a.clients[i], b.clients[i]) {
			t.Errorf("client %d: two streams from seed 1 differ", i)
		}
		if reflect.DeepEqual(a.clients[i].pass, c.clients[i].pass) {
			t.Errorf("client %d: seeds 1 and 2 gave the same stream", i)
		}
	}
	if a.passSum() == c.passSum() {
		t.Error("seeds 1 and 2 gave the same pass checksum")
	}
	if f := a.admitFrac(); f <= 0 || f >= 1 {
		t.Errorf("admitted share %g, want both admissions and rejections", f)
	}
	q := &qosdRig{topo: topo, load: a}
	rc := newTestCtx()
	if err := checkDirect(rc, q); err != nil {
		t.Fatal(err)
	}
	if rc.failed != 0 {
		t.Error("direct application disagrees with the planned checksum")
	}
}

// TestQosdOverHTTP runs one pass and a short ladder against a loopback
// daemon and checks both decision checksums.
func TestQosdOverHTTP(t *testing.T) {
	topo, err := topology.Generate("random?links=200,flows=1000,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	load, err := genChurn(topo, 5, []float64{2000}, []int{40})
	if err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon(topo, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := &qosdRig{topo: topo, d: d, load: load, cl: newClient()}
	rc := newTestCtx()
	r, err := runPass(q.cl, q.d, q.load)
	if err != nil {
		t.Fatal(err)
	}
	checkPass(rc, q, r)
	q.runLadder(rc)
	q.close(rc)
	if rc.failed != 0 {
		t.Errorf("%d of %d operations and checks failed", rc.failed, rc.attempted)
	}
}

// TestRecorderSelfTime checks self time excludes children and that
// ids pass from parent to child.
func TestRecorderSelfTime(t *testing.T) {
	rec := NewRecorder([]string{"outer", "inner"}, 1)
	start := time.Now()
	rec.Begin(0, 42)
	time.Sleep(2 * time.Millisecond)
	rec.Begin(1, 0)
	time.Sleep(5 * time.Millisecond)
	rec.End()
	rec.End()
	wall := time.Since(start)
	if rec.SelfNs(0) >= rec.TotalNs(0)-float64(rec.layers[1].total)+1 || rec.SelfNs(1) != rec.TotalNs(1) {
		t.Errorf("self times outer %g of %g, inner %g of %g", rec.SelfNs(0), rec.TotalNs(0), rec.SelfNs(1), rec.TotalNs(1))
	}
	if rec.TotalNs(1) < 5e6 || rec.SelfNs(0) < 2e6 || rec.SelfNs(0) > rec.TotalNs(0)-5e6 {
		t.Errorf("outer self %g ns, inner %g ns", rec.SelfNs(0), rec.TotalNs(1))
	}
	if len(rec.spans) != 2 || rec.spans[1].ID != 42 || rec.spans[1].Parent != 0 {
		t.Errorf("spans %+v", rec.spans)
	}
	if r := rec.Residual(wall); r < 0 || r > 0.5 {
		t.Errorf("residual %g", r)
	}
}

// TestBenchmarkJSON checks BENCHMARK.json names every workload and
// every metric the command can print, with the same units, and
// nothing else.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, command %q %q", i, bj.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the command %d+%d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for i, m := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, command %+v", i, got, m)
		}
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.name, m.bound)
		}
	}
	for i, m := range perLayer {
		got := bj.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, command %+v", i, got, m)
		}
	}
	seen := map[string]bool{}
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if seen[m.name] || !name.MatchString(m.name) || !unit.MatchString(m.unit) {
				t.Errorf("metric %q (unit %q) is repeated or badly formed", m.name, m.unit)
			}
			seen[m.name] = true
		}
	}
}

// TestWorkloadsEndToEnd runs every workload briefly in both modes and
// checks each passes its own correctness checks and reports every
// metric of its mode. Metric names outside the tables panic in set.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rc := newTestCtx()
			rc.workload, rc.trace, rc.traceDir = w.name, trace, dir
			if err := w.run(rc); err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if rc.failed != 0 || rc.attempted == 0 {
				t.Errorf("%s trace=%t: %d of %d failed", w.name, trace, rc.failed, rc.attempted)
			}
			if !trace {
				for _, m := range endToEnd {
					if v, ok := rc.values[m.name]; !ok || v <= 0 {
						t.Errorf("%s: end-to-end %s = %g (set %t)", w.name, m.name, v, ok)
					}
				}
			}
		}
	}
}

func newTestCtx() *runCtx {
	return &runCtx{workload: "test", seed: 1, seconds: 1, out: io.Discard, values: map[string]float64{}}
}
