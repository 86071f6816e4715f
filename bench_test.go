// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus micro-benchmarks of the per-packet primitives whose
// O(1) cost is the paper's whole argument.
//
// The figure benchmarks run a scaled-down version of the corresponding
// experiment (fewer replications, shorter runs, a coarse buffer sweep)
// and report the figure's defining quantities via b.ReportMetric so the
// shape can be read straight from `go test -bench`. Full-scale numbers
// come from `go run ./cmd/qsim`; EXPERIMENTS.md records both.
package bufqos_test

import (
	"context"
	"strings"
	"testing"

	"bufqos/internal/buffer"
	"bufqos/internal/core"
	"bufqos/internal/experiment"
	"bufqos/internal/fluid"
	"bufqos/internal/metrics"
	"bufqos/internal/packet"
	"bufqos/internal/sched"
	"bufqos/internal/sim"
	"bufqos/internal/source"
	"bufqos/internal/units"
)

// benchOpts is the reduced-scale configuration shared by the figure
// benchmarks.
func benchOpts() *experiment.Options {
	o := &experiment.Options{
		Runs:        2,
		Duration:    4,
		BufferSizes: []units.Bytes{units.KiloBytes(500), units.MegaBytes(1), units.MegaBytes(3)},
		Headrooms:   []units.Bytes{0, units.KiloBytes(250), units.KiloBytes(500)},
		Headroom:    units.KiloBytes(500),
	}
	experiment.WithWarmup(0.5)(o)
	experiment.WithSeed(1)(o)
	return o
}

// reportEdge reports a series' value at the smallest and largest swept
// buffer, which is where each figure's story lives.
func reportEdge(b *testing.B, fig experiment.Figure, label, unit string) {
	b.Helper()
	s, ok := fig.SeriesByLabel(label)
	if !ok {
		b.Fatalf("%s: series %q missing", fig.ID, label)
	}
	// Metric units may not contain whitespace.
	name := strings.ReplaceAll(label, " ", "-")
	b.ReportMetric(s.Points[0].Mean, name+"@min-"+unit)
	b.ReportMetric(s.Points[len(s.Points)-1].Mean, name+"@max-"+unit)
}

func runFigure(b *testing.B, fn func(context.Context, *experiment.Options) (experiment.Figure, error)) experiment.Figure {
	b.Helper()
	var fig experiment.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = fn(context.Background(), benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	return fig
}

// --- Tables ---

// BenchmarkTable1Workload measures generation of the Table 1 traffic
// mix and reports the realized offered load (paper: "a little over
// 100%" of the link).
func BenchmarkTable1Workload(b *testing.B) {
	benchWorkload(b, experiment.Table1Flows())
}

// BenchmarkTable2Workload does the same for the Table 2 mix.
func BenchmarkTable2Workload(b *testing.B) {
	benchWorkload(b, experiment.Table2Flows())
}

func benchWorkload(b *testing.B, flows []experiment.FlowConfig) {
	b.Helper()
	var offered float64
	for i := 0; i < b.N; i++ {
		s := sim.New()
		var total units.Bytes
		sink := source.SinkFunc(func(p *packet.Packet) { total += p.Size })
		for fi, f := range flows {
			src := source.NewOnOff(s, sim.NewRand(sim.DeriveSeed(1, fi)), source.OnOffConfig{
				Flow: fi, PacketSize: experiment.DefaultPacketSize,
				PeakRate: f.Spec.PeakRate, AvgRate: f.AvgRate, MeanBurst: f.MeanBurst,
			}, sink)
			src.Start()
		}
		const dur = 5.0
		s.RunUntil(dur)
		offered = total.Bits() / dur / experiment.DefaultLinkRate.BitsPerSecond()
	}
	b.ReportMetric(offered, "offered-load")
}

// --- Sweep execution: sequential vs worker pool ---

// BenchmarkFigure1Sequential and BenchmarkFigure1Parallel run the same
// Figure 1 sweep with Workers=1 and Workers=GOMAXPROCS; the ns/op ratio
// is the wall-clock speedup of the worker pool (the outputs themselves
// are identical — TestParallelRunLinesMatchesSequential asserts so).
func BenchmarkFigure1Sequential(b *testing.B) {
	o := benchOpts()
	o.Workers = 1
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure1(context.Background(), o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1Parallel(b *testing.B) {
	o := benchOpts()
	o.Workers = 0 // GOMAXPROCS
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure1(context.Background(), o); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 1-3: threshold-based buffer management ---

func BenchmarkFigure1(b *testing.B) {
	fig := runFigure(b, experiment.Figure1)
	reportEdge(b, fig, "FIFO", "util")
	reportEdge(b, fig, "FIFO+thresholds", "util")
	reportEdge(b, fig, "WFQ+thresholds", "util")
}

func BenchmarkFigure2(b *testing.B) {
	fig := runFigure(b, experiment.Figure2)
	reportEdge(b, fig, "FIFO", "loss")
	reportEdge(b, fig, "FIFO+thresholds", "loss")
	reportEdge(b, fig, "WFQ+thresholds", "loss")
}

func BenchmarkFigure3(b *testing.B) {
	fig := runFigure(b, experiment.Figure3)
	reportEdge(b, fig, "WFQ+thresholds flow6", "mbps")
	reportEdge(b, fig, "WFQ+thresholds flow8", "mbps")
	reportEdge(b, fig, "FIFO+thresholds flow6", "mbps")
	reportEdge(b, fig, "FIFO+thresholds flow8", "mbps")
}

// --- Figures 4-7: buffer sharing ---

func BenchmarkFigure4(b *testing.B) {
	fig := runFigure(b, experiment.Figure4)
	reportEdge(b, fig, "FIFO+sharing", "util")
	reportEdge(b, fig, "WFQ+sharing", "util")
	reportEdge(b, fig, "FIFO", "util")
}

func BenchmarkFigure5(b *testing.B) {
	fig := runFigure(b, experiment.Figure5)
	reportEdge(b, fig, "FIFO+sharing", "loss")
	reportEdge(b, fig, "WFQ+sharing", "loss")
}

func BenchmarkFigure6(b *testing.B) {
	fig := runFigure(b, experiment.Figure6)
	reportEdge(b, fig, "FIFO+sharing flow6", "mbps")
	reportEdge(b, fig, "FIFO+sharing flow8", "mbps")
}

func BenchmarkFigure7(b *testing.B) {
	fig := runFigure(b, experiment.Figure7)
	reportEdge(b, fig, "FIFO+sharing", "loss")
	reportEdge(b, fig, "WFQ+sharing", "loss")
}

// --- Figures 8-13: hybrid systems ---

func BenchmarkFigure8(b *testing.B) {
	fig := runFigure(b, experiment.Figure8)
	reportEdge(b, fig, "hybrid+sharing", "util")
	reportEdge(b, fig, "WFQ+sharing", "util")
}

func BenchmarkFigure9(b *testing.B) {
	fig := runFigure(b, experiment.Figure9)
	reportEdge(b, fig, "hybrid+sharing", "loss")
	reportEdge(b, fig, "WFQ+sharing", "loss")
}

func BenchmarkFigure10(b *testing.B) {
	fig := runFigure(b, experiment.Figure10)
	reportEdge(b, fig, "hybrid+sharing flow6", "mbps")
	reportEdge(b, fig, "hybrid+sharing flow8", "mbps")
}

func BenchmarkFigure11(b *testing.B) {
	fig := runFigure(b, experiment.Figure11)
	reportEdge(b, fig, "hybrid+sharing", "util")
	reportEdge(b, fig, "WFQ+sharing", "util")
}

func BenchmarkFigure12(b *testing.B) {
	fig := runFigure(b, experiment.Figure12)
	reportEdge(b, fig, "hybrid+sharing", "loss")
	reportEdge(b, fig, "WFQ+sharing", "loss")
}

func BenchmarkFigure13(b *testing.B) {
	fig := runFigure(b, experiment.Figure13)
	reportEdge(b, fig, "hybrid+sharing moderate", "mbps")
	reportEdge(b, fig, "hybrid+sharing aggressive", "mbps")
}

// --- Analytic results quoted in the text ---

// BenchmarkBufferUtilizationCurve evaluates the §2.3 trade-off
// (equation 10) and reports the inflation at the paper's operating
// point u = 32.8/48.
func BenchmarkBufferUtilizationCurve(b *testing.B) {
	specs := experiment.Specs(experiment.Table1Flows())
	var inflation float64
	for i := 0; i < b.N; i++ {
		u := core.ReservedUtilization(specs, experiment.DefaultLinkRate)
		inflation = core.BufferInflation(u)
	}
	b.ReportMetric(inflation, "inflation@u0.683")
}

// BenchmarkHybridSavings evaluates Proposition 3 and equation (17) for
// the Case 1 grouping and reports the saved KB.
func BenchmarkHybridSavings(b *testing.B) {
	specs := experiment.Specs(experiment.Table1Flows())
	var savings units.Bytes
	for i := 0; i < b.N; i++ {
		groups, err := core.GroupFlows(specs, experiment.Table1QueueOf(), 3)
		if err != nil {
			b.Fatal(err)
		}
		savings, err = core.BufferSavings(experiment.DefaultLinkRate, groups)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(savings.KB(), "savings-KB")
}

// BenchmarkExample1Convergence iterates the §2.1 recursion to its
// fixed point.
func BenchmarkExample1Convergence(b *testing.B) {
	e, err := fluid.NewExample1(units.MbitsPerSecond(8), units.MbitsPerSecond(48), units.MegaBytes(1))
	if err != nil {
		b.Fatal(err)
	}
	var last float64
	for i := 0; i < b.N; i++ {
		ivs := e.Intervals(64)
		last = ivs[len(ivs)-1].R1.Mbits()
	}
	b.ReportMetric(last, "R1-limit-mbps")
}

// --- Per-packet primitives: the complexity argument ---

// BenchmarkAdmitFixedThreshold measures the O(1) admission decision of
// the paper's scheme (compare BenchmarkWFQEnqueueDequeue).
func BenchmarkAdmitFixedThreshold(b *testing.B) {
	th, err := core.Thresholds(experiment.Specs(experiment.Table1Flows()),
		experiment.DefaultLinkRate, units.MegaBytes(1))
	if err != nil {
		b.Fatal(err)
	}
	m := buffer.NewFixedThreshold(units.MegaBytes(1), th)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Admit(i%9, 500) {
			m.Release(i%9, 500)
		}
	}
}

// BenchmarkAdmitSharing measures the sharing scheme's per-packet cost —
// still O(1), a few counters more.
func BenchmarkAdmitSharing(b *testing.B) {
	th, err := core.Thresholds(experiment.Specs(experiment.Table1Flows()),
		experiment.DefaultLinkRate, units.MegaBytes(1))
	if err != nil {
		b.Fatal(err)
	}
	m := buffer.NewSharing(units.MegaBytes(1), th, units.KiloBytes(200))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Admit(i%9, 500) {
			m.Release(i%9, 500)
		}
	}
}

// BenchmarkWFQEnqueueDequeue measures the per-packet cost of the
// sorted-queue alternative at 256 flows — the scaling burden the paper
// avoids.
func BenchmarkWFQEnqueueDequeue(b *testing.B) {
	const n = 256
	weights := make([]units.Rate, n)
	for i := range weights {
		weights[i] = units.Mbps
	}
	now := 0.0
	w := sched.NewWFQ(units.MbitsPerSecond(48), func() float64 { return now }, weights)
	pkts := make([]*packet.Packet, n)
	for i := range pkts {
		pkts[i] = &packet.Packet{Flow: i, Size: 500}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Enqueue(pkts[i%n])
		now += 1e-6
		if w.Len() > n {
			w.Dequeue()
		}
	}
}

// BenchmarkFIFOEnqueueDequeue is the FIFO counterpart.
func BenchmarkFIFOEnqueueDequeue(b *testing.B) {
	f := sched.NewFIFO()
	p := &packet.Packet{Flow: 0, Size: 500}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Enqueue(p)
		if f.Len() > 64 {
			f.Dequeue()
		}
	}
}

// BenchmarkEndToEndSimulation measures simulator throughput on the full
// Table 1 workload (packets simulated per wall-second is the inverse of
// ns/op divided by the packet count).
func BenchmarkEndToEndSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiment.Run(context.Background(), experiment.NewOptions(
			experiment.WithFlows(experiment.Table1Flows()),
			experiment.WithSchemeSpec("fifo+threshold"),
			experiment.WithBuffer(units.MegaBytes(1)),
			experiment.WithDuration(2),
			experiment.WithWarmup(0.2),
			experiment.WithSeed(int64(i+1)),
		))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndSimulationMetrics is the same run with a live metrics
// registry attached. Comparing its ns/op against
// BenchmarkEndToEndSimulation prices the enabled instrumentation; the
// disabled (nil-registry) path is priced by BenchmarkEndToEndSimulation
// itself against the pre-instrumentation baseline.
func BenchmarkEndToEndSimulationMetrics(b *testing.B) {
	reg := metrics.NewRegistry()
	for i := 0; i < b.N; i++ {
		_, err := experiment.Run(context.Background(), experiment.NewOptions(
			experiment.WithFlows(experiment.Table1Flows()),
			experiment.WithSchemeSpec("fifo+threshold"),
			experiment.WithBuffer(units.MegaBytes(1)),
			experiment.WithDuration(2),
			experiment.WithWarmup(0.2),
			experiment.WithSeed(int64(i+1)),
			experiment.WithMetrics(reg),
		))
		if err != nil {
			b.Fatal(err)
		}
	}
}
