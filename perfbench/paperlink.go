package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"time"

	"bufqos/internal/experiment"
	"bufqos/internal/metrics"
	"bufqos/internal/sched"
	"bufqos/internal/scheme"
	"bufqos/internal/sim"
	"bufqos/internal/source"
	"bufqos/internal/stats"
	"bufqos/internal/units"
)

// The paper-link workload: the Table 1 mix on the paper's 48 Mb/s link
// with a 1 MB buffer, one run per scheme, back to back.
const (
	paperDuration = 30.0 // simulated seconds per run
	// paperSetupHorizon is the near-zero horizon whose runs time the
	// data-plane assembly; paperSetupReps pairs of them make a sample.
	paperSetupHorizon = 1e-3
	paperSetupReps    = 20
	paperSetupSamples = 11
)

var paperSchemes = []string{"fifo+sharing", "wfq+sharing"}

// paperLossless marks the schemes whose conformant loss is asserted to
// be zero. fifo+sharing at the single-run headroom H = 0 is not: with
// no headroom, flows above their threshold may fill the holes a
// conformant flow below its threshold needs (the paper's Fig. 7 loss
// at H = 0), and some Table 1 realizations lose ~1e-5 of conformant
// bytes that way. Its conformant loss is reported instead.
var paperLossless = map[string]bool{"wfq+sharing": true}

func paperOptions(spec string, seed int64, duration float64) *experiment.Options {
	return experiment.NewOptions(
		experiment.WithFlows(experiment.Table1Flows()),
		experiment.WithSchemeSpec(spec),
		experiment.WithBuffer(units.MegaBytes(1)),
		experiment.WithDuration(duration),
		experiment.WithSeed(seed),
	)
}

// paperTwin is experiment.Run's data plane rebuilt from public
// constructors, with every layer boundary optionally wrapped.
type paperTwin struct {
	s        *sim.Simulator
	col      *stats.Collector
	flows    []experiment.FlowConfig
	duration float64
	arrivals int64
	mgr      *tracedManager
	vt       *metrics.Registry
}

// newPaperTwin assembles the twin. With rec nil nothing is wrapped but
// the arrivals counter; otherwise the sinks, the link, the buffer
// manager and the scheduler report to rec, and a stop event is armed
// at the horizon for stepTraced.
func newPaperTwin(spec string, seed int64, duration float64, rec *Recorder) (*paperTwin, *bool, error) {
	t := &paperTwin{s: sim.New(), flows: experiment.Table1Flows(), duration: duration}
	var stop *bool
	if rec != nil {
		stop = armStop(t.s, duration)
	}
	n := len(t.flows)
	t.col = stats.NewCollector(n, duration/10)
	sc, err := scheme.Parse(spec)
	if err != nil {
		return nil, nil, err
	}
	adaptive := make([]bool, n)
	for i, f := range t.flows {
		adaptive[i] = f.Conformance != experiment.Aggressive
	}
	mgr, sch, err := sc.Build(scheme.Config{
		Specs:      experiment.Specs(t.flows),
		LinkRate:   experiment.DefaultLinkRate,
		Buffer:     units.MegaBytes(1),
		Adaptive:   adaptive,
		PacketSize: experiment.DefaultPacketSize,
		Now:        t.s.Now,
		Seed:       seed,
	})
	if err != nil {
		return nil, nil, err
	}
	var linkSink source.Sink
	if rec == nil {
		link := sched.NewLink(t.s, experiment.DefaultLinkRate, sch, mgr, t.col)
		linkSink = countingSink{link, &t.arrivals}
	} else {
		if in, ok := sch.(interface{ Instrument(*metrics.Registry) }); ok {
			t.vt = metrics.NewRegistry()
			in.Instrument(t.vt)
		}
		t.mgr = &tracedManager{Manager: mgr, rec: rec}
		link := sched.NewLink(t.s, experiment.DefaultLinkRate, tracedScheduler{sch, rec}, t.mgr, t.col)
		linkSink = countingSink{tracedSink{link, rec, lLink}, &t.arrivals}
	}
	for i, f := range t.flows {
		var sink source.Sink
		if f.Regulated() {
			sink = source.NewShaper(t.s, f.Spec, linkSink)
		} else {
			sink = source.NewMeter(t.s, f.Spec, linkSink)
		}
		if rec != nil {
			sink = tracedSink{sink, rec, lSink}
		}
		size := experiment.DefaultPacketSize
		if f.PacketSize > 0 {
			size = f.PacketSize
		}
		source.NewOnOff(t.s, sim.NewRand(sim.DeriveSeed(seed, i)), source.OnOffConfig{
			Flow:       i,
			PacketSize: size,
			PeakRate:   f.Spec.PeakRate,
			AvgRate:    f.AvgRate,
			MeanBurst:  f.MeanBurst,
		}, sink).Start()
	}
	return t, stop, nil
}

// result computes the measurements exactly as experiment.Run does.
func (t *paperTwin) result() experiment.Result {
	n := len(t.flows)
	res := experiment.Result{
		AggThroughput:  t.col.AggregateThroughput(t.duration),
		FlowThroughput: make([]units.Rate, n),
		FlowLoss:       make([]float64, n),
		OfferedRate:    make([]units.Rate, n),
		ConformantLoss: t.col.ConformantLossRatio(experiment.ConformantIDs(t.flows)...),
	}
	res.Utilization = res.AggThroughput.BitsPerSecond() / experiment.DefaultLinkRate.BitsPerSecond()
	meas := t.duration - t.duration/10
	for i := 0; i < n; i++ {
		res.FlowThroughput[i] = t.col.FlowThroughput(i, t.duration)
		res.FlowLoss[i] = t.col.LossRatio(i)
		res.OfferedRate[i] = units.Rate(t.col.Flow(i).Offered.Total().Bytes.Bits() / meas)
	}
	return res
}

// armStop schedules the event that ends a stepped run at the horizon.
// Armed before any other event, it fires first among the horizon's
// events; RunUntil then fires the rest. It shifts every later sequence
// number by one, which leaves their order — and so the run — unchanged,
// and adds exactly one kernel event.
func armStop(s *sim.Simulator, at float64) *bool {
	stop := new(bool)
	s.At(at, func() { *stop = true })
	return stop
}

// stepTraced drives s to the horizon one traced Step at a time and
// returns the deepest event heap seen, the stop event excluded.
func stepTraced(s *sim.Simulator, stop *bool, horizon float64, rec *Recorder) int {
	depth := 0
	for !*stop {
		rec.Begin(lStep, 0)
		s.Step()
		rec.End()
		depth = max(depth, s.Pending()-1)
	}
	s.RunUntil(horizon)
	return depth
}

// realPaperRun runs the real entry point, returning its result and,
// when counted, its kernel event count.
func realPaperRun(spec string, seed int64, duration float64, counted bool) (experiment.Result, uint64, error) {
	o := paperOptions(spec, seed, duration)
	var reg *metrics.Registry
	if counted {
		reg = metrics.NewRegistry()
		o.Metrics = reg
	}
	res, err := experiment.Run(context.Background(), o)
	if err != nil || reg == nil {
		return res, 0, err
	}
	return res, uint64(reg.Histogram("experiment.run_events", nil).Sum()), nil
}

func runPaperLink(c *runCtx) error {
	if c.trace {
		return tracePaperLink(c)
	}
	setup, err := setupTime(paperSetupSamples, paperSetupReps, func() error {
		for _, spec := range paperSchemes {
			if _, err := experiment.Run(context.Background(), paperOptions(spec, c.seed, paperSetupHorizon)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.set("setup_s", setup)

	// Each iteration runs both schemes on its own seed, derived from the
	// run's, so one run's figures summarize many traffic realizations.
	first := make([]experiment.Result, len(paperSchemes))
	worst := make([]float64, len(paperSchemes))
	var tp throughput
	var pkts int64
	hp := startHeapPeak()
	start := time.Now()
	for tp.iters() == 0 || time.Since(start).Seconds() < c.seconds {
		seed := sim.DeriveSeed(c.seed, tp.iters())
		c0 := cpuTime()
		var n int64
		for i, spec := range paperSchemes {
			res, err := experiment.Run(context.Background(), paperOptions(spec, seed, paperDuration))
			c.attempt(1, 0)
			if err != nil {
				hp.stop()
				return err
			}
			if paperLossless[spec] {
				c.check(res.ConformantLoss == 0, "%s seed %d: conformant loss %g, want 0", spec, seed, res.ConformantLoss)
			}
			worst[i] = max(worst[i], res.ConformantLoss)
			n += measuredPackets(res)
			if tp.iters() == 0 {
				first[i] = res
			}
		}
		cpu := cpuTime() - c0
		hp.mark()
		tp.add(float64(n), cpu)
		pkts += n
	}
	c.set("heap_live_peak_mb", hp.stop())
	tp.report(c)

	// The first iteration again: the real entry point must repeat
	// itself, and the twin must reproduce it.
	seed := sim.DeriveSeed(c.seed, 0)
	for i, spec := range paperSchemes {
		again, err := experiment.Run(context.Background(), paperOptions(spec, seed, paperDuration))
		c.attempt(1, 0)
		if err != nil {
			return err
		}
		c.check(reflect.DeepEqual(again, first[i]), "%s: repeated run differs from the first", spec)
		tw, _, err := newPaperTwin(spec, seed, paperDuration, nil)
		if err != nil {
			return err
		}
		tw.s.RunUntil(paperDuration)
		c.check(reflect.DeepEqual(tw.result(), first[i]), "%s: twin result differs from experiment.Run", spec)
	}
	fmt.Fprintf(c.out, "paper-link pairs=%d measured_pkts=%d sim_s=%g (warm-up %g) worst_conformant_loss %s=%g %s=%g\n",
		tp.iters(), pkts, paperDuration, paperDuration/10, paperSchemes[0], worst[0], paperSchemes[1], worst[1])
	return nil
}

// measuredPackets counts the packets offered to the link after the
// warm-up, from the per-flow offered rates (every Table 1 packet has
// the default size).
func measuredPackets(res experiment.Result) int64 {
	var bits float64
	for _, r := range res.OfferedRate {
		bits += r.BitsPerSecond()
	}
	meas := paperDuration - paperDuration/10
	return int64(math.Round(bits * meas / experiment.DefaultPacketSize.Bits()))
}

func tracePaperLink(c *runCtx) error {
	seed := sim.DeriveSeed(c.seed, 0) // the untraced run's first realization
	rec := NewRecorder(simLayers, spanSample)
	var (
		events, arrivals, drops, admits, vtAdvances, wfqArrivals int64
		depth                                                    int
		plainWall, tracedWall                                    time.Duration
		gc                                                       rtDelta
	)
	for _, spec := range paperSchemes {
		want, wantEvents, err := realPaperRun(spec, seed, paperDuration, true)
		c.attempt(1, 0)
		if err != nil {
			return err
		}
		if paperLossless[spec] {
			c.check(want.ConformantLoss == 0, "%s: conformant loss %g, want 0", spec, want.ConformantLoss)
		}

		// The untraced baseline: the real entry point for the runtime
		// counters, the plain twin for the tracing overhead.
		rt0 := readRT()
		if _, _, err := realPaperRun(spec, seed, paperDuration, false); err != nil {
			return err
		}
		gc.add(readRT().since(rt0))
		plain, _, err := newPaperTwin(spec, seed, paperDuration, nil)
		if err != nil {
			return err
		}
		t0 := time.Now()
		plain.s.RunUntil(paperDuration)
		plainWall += time.Since(t0)

		tw, stop, err := newPaperTwin(spec, seed, paperDuration, rec)
		if err != nil {
			return err
		}
		t0 = time.Now()
		depth = max(depth, stepTraced(tw.s, stop, paperDuration, rec))
		tracedWall += time.Since(t0)
		got := tw.result()
		steps := int64(tw.s.Steps()) - 1
		c.check(reflect.DeepEqual(got, want), "%s: traced twin result differs from experiment.Run", spec)
		c.check(steps == int64(wantEvents), "%s: traced twin ran %d events, experiment.Run %d", spec, steps, wantEvents)
		c.check(reflect.DeepEqual(plain.result(), want), "%s: plain twin result differs from experiment.Run", spec)
		c.check(plain.arrivals == tw.arrivals, "%s: plain twin offered %d packets, traced %d", spec, plain.arrivals, tw.arrivals)

		events += steps
		arrivals += tw.arrivals
		drops += tw.mgr.drops
		admits += rec.Calls(lAdmit)
		if tw.vt != nil {
			v, _ := tw.vt.Value("sched.wfq.vt_advances")
			vtAdvances += int64(v)
			wfqArrivals += tw.arrivals
		}
	}
	rec.verify(c, "paper-link trace")
	setSimLayers(c, rec, float64(events), float64(arrivals), depth)
	c.set("buffer.drop_frac", ratio(float64(drops), float64(admits)))
	c.set("sched.wfq_vt_advances_per_pkt", ratio(float64(vtAdvances), float64(wfqArrivals)))
	setPktGC(c, gc, float64(arrivals))
	c.set("trace.overhead_frac", tracedWall.Seconds()/plainWall.Seconds()-1)
	c.set("trace.residual_frac", rec.Residual(tracedWall))
	return writeSpans(c, map[string]*Recorder{"sim": rec})
}

// setSimLayers reports the per-layer figures a simulator twin's
// recorder holds.
func setSimLayers(c *runCtx, rec *Recorder, events, arrivals float64, depth int) {
	c.set("sim.events_per_pkt", ratio(events, arrivals))
	c.set("sim.heap_depth_max", float64(depth))
	c.set("sim.step_self_ns", rec.SelfNs(lStep))
	c.set("source.sink_ns", rec.SelfNs(lSink))
	c.set("source.tcp_ack_ns", rec.SelfNs(lAck))
	c.set("source.tcp_drop_ns", rec.SelfNs(lDrop))
	c.set("buffer.admit_ns", rec.SelfNs(lAdmit))
	c.set("buffer.release_ns", rec.SelfNs(lRelease))
	c.set("sched.enqueue_ns", rec.SelfNs(lEnqueue))
	c.set("sched.dequeue_ns", rec.SelfNs(lDequeue))
	c.set("sched.link_receive_self_ns", rec.SelfNs(lLink))
	c.set("network.delivery_ns", rec.SelfNs(lDelivery))
}

// setPktGC reports the runtime counters of untraced runs per packet.
func setPktGC(c *runCtx, gc rtDelta, arrivals float64) {
	c.set("gc.allocs_per_pkt", ratio(gc.allocs, arrivals))
	c.set("gc.alloc_bytes_per_pkt", ratio(gc.allocBytes, arrivals))
	c.set("gc.cpu_frac", ratio(gc.gcCPU, gc.totalCPU))
}
