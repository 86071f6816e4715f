// Command qtrace runs a single Table 1 scenario and emits time series
// of the simulation's internal state — per-flow buffer occupancy and,
// for the sharing schemes, the holes/headroom pool levels — as CSV.
// It makes the §2 dynamics (a greedy flow pinned at its threshold, a
// conformant flow's occupancy converging from below) and the §3.3 pool
// mechanics directly visible.
//
// The -scheme flag accepts any scheme-registry spec (see -list-schemes);
// the bare manager names "threshold" and "sharing" keep working and mean
// FIFO scheduling, as before.
//
//	qtrace -scheme sharing -buffer 1 -headroom 0.25 > trace.csv
//	qtrace -scheme wfq+sharing > trace.csv
//	qtrace -scheme fifo+red?min=0.2,max=0.8 > trace.csv
//	qtrace -scheme threshold -example1 > example1.csv
//	qtrace -scheme sharing -metrics metrics.csv > trace.csv
//
// With -metrics, the run's counters and gauges (event kernel, buffer
// accepts/drops, scheduler service counts) are additionally sampled on
// the same interval and written as a second CSV time series.
package main

import (
	"flag"
	"fmt"
	"os"

	"strings"

	"bufqos/internal/buffer"
	"bufqos/internal/core"
	"bufqos/internal/experiment"
	"bufqos/internal/metrics"
	"bufqos/internal/sched"
	"bufqos/internal/scheme"
	"bufqos/internal/sim"
	"bufqos/internal/source"
	"bufqos/internal/trace"
	"bufqos/internal/units"
)

func main() {
	var (
		schemeF  = flag.String("scheme", "threshold", "scheme-registry spec, e.g. threshold, sharing, wfq+sharing, fifo+red?min=0.2")
		bufferMB = flag.Float64("buffer", 1, "total buffer in MB")
		headMB   = flag.Float64("headroom", 0.25, "sharing headroom in MB")
		duration = flag.Float64("duration", 5, "simulated seconds")
		interval = flag.Float64("interval", 0.005, "sample interval in seconds")
		seed     = flag.Int64("seed", 1, "random seed")
		example1 = flag.Bool("example1", false, "trace the Example 1 scenario (CBR vs feedback-greedy) instead of Table 1")
		metricsF = flag.String("metrics", "", "also sample run metrics every interval and write them as CSV to this file")
		listSch  = flag.Bool("list-schemes", false, "print the scheme registry catalogue and exit")
	)
	flag.Parse()

	if *listSch {
		if err := scheme.WriteCatalogue(os.Stdout); err != nil {
			fatalf("writing catalogue: %v", err)
		}
		return
	}

	s := sim.New()
	linkRate := experiment.DefaultLinkRate
	bufSize := units.MegaBytes(*bufferMB)

	var mgr buffer.Manager
	var labels []string
	var probe func() []float64
	var reg *metrics.Registry
	if *metricsF != "" {
		reg = metrics.NewRegistry()
		s.Instrument(reg)
	}
	// instrument wires the built manager and link into reg (no-op
	// without -metrics).
	instrument := func(link *sched.Link, label string) {
		if reg == nil {
			return
		}
		if in, ok := mgr.(buffer.Instrumentable); ok {
			in.Instrument(reg, "buffer")
		}
		link.Instrument(reg, label)
	}

	if *example1 {
		// Two flows: conformant CBR at 8 Mb/s vs the greedy adversary.
		rho := units.MbitsPerSecond(8)
		th := core.PeakRateThreshold(rho, linkRate, bufSize)
		fixed := buffer.NewFixedThreshold(bufSize, []units.Bytes{th + 500, bufSize - th - 500})
		mgr = fixed
		link := sched.NewLink(s, linkRate, sched.NewFIFO(), mgr, nil)
		instrument(link, "example1")
		g := source.NewFeedbackGreedy(s, 1, 500, mgr, link)
		link.OnDepart = g.DepartureHook()
		g.Kick()
		src := source.NewCBR(s, 0, 500, rho, link)
		src.Start()
		labels = []string{"q_conformant", "q_greedy", "threshold_conformant"}
		probe = func() []float64 {
			return []float64{
				float64(mgr.Occupancy(0)),
				float64(mgr.Occupancy(1)),
				float64(th),
			}
		}
	} else {
		flows := experiment.Table1Flows()
		sc, err := scheme.Parse(*schemeF)
		if err != nil {
			fatalf("%v\navailable specs: %s\n(see -list-schemes for parameters)",
				err, strings.Join(scheme.Specs(), ", "))
		}
		adaptive := make([]bool, len(flows))
		for i, f := range flows {
			adaptive[i] = f.Conformance != experiment.Aggressive
		}
		var scheduler sched.Scheduler
		mgr, scheduler, err = sc.Build(scheme.Config{
			Specs:    experiment.Specs(flows),
			LinkRate: linkRate,
			Buffer:   bufSize,
			Headroom: units.MegaBytes(*headMB),
			QueueOf:  experiment.Table1QueueOf(),
			Adaptive: adaptive,
			Now:      s.Now,
			Seed:     *seed,
		})
		if err != nil {
			fatalf("building %s: %v", sc.Spec(), err)
		}
		// Occupancy columns for every flow; the sharing managers (§3.3
		// and its §5 adaptive form) additionally expose their
		// holes/headroom pool levels.
		labels = occupancyLabels(len(flows))
		var pools func() []float64
		if m, ok := mgr.(*buffer.Sharing); ok {
			labels = append(labels, "holes", "headroom")
			pools = func() []float64 {
				return []float64{float64(m.Holes()), float64(m.Headroom())}
			}
		}
		probe = occupancyProbe(mgr, len(flows), pools)
		link := sched.NewLink(s, linkRate, scheduler, mgr, nil)
		instrument(link, sc.String())
		for i, f := range flows {
			rng := sim.NewRand(sim.DeriveSeed(*seed, i))
			var sink source.Sink = link
			if f.Regulated() {
				sink = source.NewShaper(s, f.Spec, link)
			} else {
				sink = source.NewMeter(s, f.Spec, link)
			}
			src := source.NewOnOff(s, rng, source.OnOffConfig{
				Flow: i, PacketSize: experiment.DefaultPacketSize,
				PeakRate: f.Spec.PeakRate, AvgRate: f.AvgRate, MeanBurst: f.MeanBurst,
			}, sink)
			src.Start()
		}
	}

	sa := trace.NewSampler(s, *interval, labels, probe)
	sa.Start()
	var msa *trace.Sampler
	if reg != nil {
		msa = trace.NewMetricsSampler(s, *interval, reg, reg.Names())
		msa.Start()
	}
	s.RunUntil(*duration)
	if err := sa.WriteCSV(os.Stdout); err != nil {
		fatalf("writing csv: %v", err)
	}
	if msa != nil {
		f, err := os.Create(*metricsF)
		if err != nil {
			fatalf("creating %s: %v", *metricsF, err)
		}
		if err := msa.WriteCSV(f); err != nil {
			f.Close()
			fatalf("writing %s: %v", *metricsF, err)
		}
		if err := f.Close(); err != nil {
			fatalf("closing %s: %v", *metricsF, err)
		}
	}
}

func occupancyLabels(n int) []string {
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("q%d", i)
	}
	return labels
}

func occupancyProbe(mgr buffer.Manager, n int, extra func() []float64) func() []float64 {
	return func() []float64 {
		row := make([]float64, 0, n+2)
		for i := 0; i < n; i++ {
			row = append(row, float64(mgr.Occupancy(i)))
		}
		if extra != nil {
			row = append(row, extra()...)
		}
		return row
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "qtrace: "+format+"\n", args...)
	os.Exit(1)
}
