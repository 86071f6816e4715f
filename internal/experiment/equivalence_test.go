package experiment

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"bufqos/internal/units"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/legacy_golden.json from the current implementation")

// legacyGoldenSpecs is every registry spec the golden file pins, in
// the order of the scheme enum that preceded the registry. The golden
// file keys results by the spec's display label, so table labels are
// pinned at the same time.
var legacyGoldenSpecs = []string{
	"fifo+none", "wfq+none", "fifo+threshold", "wfq+threshold",
	"fifo+sharing", "wfq+sharing", "hybrid+sharing",
	"fifo+dynthresh", "fifo+red", "fifo+adaptive",
	"rpq+threshold", "drr+threshold", "edf+threshold", "vc+threshold",
}

// legacyGoldenOptions is the fixed scenario the guard runs every scheme
// under: short enough for the test suite, long enough that every code
// path (thresholds, sharing pools, RED's RNG, hybrid partitioning)
// executes.
func legacyGoldenOptions(spec string) *Options {
	o := &Options{
		Flows:       Table1Flows(),
		SchemeSpec:  spec,
		Buffer:      units.KiloBytes(500),
		Headroom:    units.KiloBytes(250),
		QueueOf:     Table1QueueOf(),
		Duration:    2,
		TrackDelays: true,
	}
	WithWarmup(0.2)(o)
	WithSeed(7)(o)
	return o
}

// goldenResult is Result in a JSON-stable form. encoding/json prints
// float64s with the shortest round-tripping representation, so decoding
// reproduces the exact bits Run produced.
type goldenResult struct {
	AggThroughput  float64   `json:"agg_throughput"`
	Utilization    float64   `json:"utilization"`
	FlowThroughput []float64 `json:"flow_throughput"`
	ConformantLoss float64   `json:"conformant_loss"`
	FlowLoss       []float64 `json:"flow_loss"`
	OfferedRate    []float64 `json:"offered_rate"`
	MaxDelay       float64   `json:"max_delay"`
	MeanDelay      float64   `json:"mean_delay"`
	FlowMaxDelay   []float64 `json:"flow_max_delay"`
}

func toGolden(r Result) goldenResult {
	g := goldenResult{
		AggThroughput:  float64(r.AggThroughput),
		Utilization:    r.Utilization,
		ConformantLoss: r.ConformantLoss,
		FlowLoss:       r.FlowLoss,
		MaxDelay:       r.MaxDelay,
		MeanDelay:      r.MeanDelay,
		FlowMaxDelay:   r.FlowMaxDelay,
	}
	for _, v := range r.FlowThroughput {
		g.FlowThroughput = append(g.FlowThroughput, float64(v))
	}
	for _, v := range r.OfferedRate {
		g.OfferedRate = append(g.OfferedRate, float64(v))
	}
	return g
}

// TestLegacySchemeEquivalence is the refactor guard: for every scheme
// of the paper's evaluation, Run through the scheme registry must
// produce bit-identical Results to the pre-registry construction switch
// (captured in testdata/legacy_golden.json before the refactor).
// Regenerate with `go test -run LegacySchemeEquivalence -update-golden`
// only when an intentional behaviour change is being made.
func TestLegacySchemeEquivalence(t *testing.T) {
	path := filepath.Join("testdata", "legacy_golden.json")
	got := map[string]goldenResult{}
	for _, spec := range legacyGoldenSpecs {
		res, err := Run(context.Background(), legacyGoldenOptions(spec))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		got[specLabel(spec)] = toGolden(res)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update-golden): %v", err)
	}
	var want map[string]goldenResult
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d schemes, current list has %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("scheme %q in golden but not produced (label drift?)", name)
			continue
		}
		compareGolden(t, name, w, g)
	}
}

func compareGolden(t *testing.T, name string, want, got goldenResult) {
	t.Helper()
	eq := func(field string, w, g float64) {
		if math.Float64bits(w) != math.Float64bits(g) {
			t.Errorf("%s: %s = %v, golden %v (not bit-identical)", name, field, g, w)
		}
	}
	eqs := func(field string, w, g []float64) {
		if len(w) != len(g) {
			t.Errorf("%s: %s has %d entries, golden %d", name, field, len(g), len(w))
			return
		}
		for i := range w {
			if math.Float64bits(w[i]) != math.Float64bits(g[i]) {
				t.Errorf("%s: %s[%d] = %v, golden %v", name, field, i, g[i], w[i])
			}
		}
	}
	eq("AggThroughput", want.AggThroughput, got.AggThroughput)
	eq("Utilization", want.Utilization, got.Utilization)
	eq("ConformantLoss", want.ConformantLoss, got.ConformantLoss)
	eq("MaxDelay", want.MaxDelay, got.MaxDelay)
	eq("MeanDelay", want.MeanDelay, got.MeanDelay)
	eqs("FlowThroughput", want.FlowThroughput, got.FlowThroughput)
	eqs("FlowLoss", want.FlowLoss, got.FlowLoss)
	eqs("OfferedRate", want.OfferedRate, got.OfferedRate)
	eqs("FlowMaxDelay", want.FlowMaxDelay, got.FlowMaxDelay)
}
