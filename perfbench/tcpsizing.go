package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"bufqos/internal/core"
	"bufqos/internal/network"
	"bufqos/internal/packet"
	"bufqos/internal/sched"
	"bufqos/internal/scheme"
	"bufqos/internal/sim"
	"bufqos/internal/sizing"
	"bufqos/internal/source"
	"bufqos/internal/stats"
	"bufqos/internal/units"
)

// The tcp-sizing workload: one closed-loop cell of the buffer-sizing
// sweep, n NewReno flows through one bottleneck with a BDP buffer.
const (
	tcpFlows    = 1000
	tcpRTT      = 0.040
	tcpScheme   = "fifo+sharing"
	tcpDuration = 3.0 // simulated seconds per run
	tcpSegment  = units.Bytes(1500)
	tcpAckSize  = units.Bytes(40)
	// tcpUtilFloor is the utilization the BDP buffer must hold.
	tcpUtilFloor = 0.95
	// Set-up is timed on runs at a near-zero horizon, tcpSetupReps runs
	// to a sample.
	tcpSetupHorizon = 1e-3
	tcpSetupReps    = 5
	tcpSetupSamples = 11
)

var tcpLinkRate = units.MbitsPerSecond(1000)

func tcpConfig(seed int64, duration float64) sizing.Config {
	return sizing.Config{
		LinkRate: tcpLinkRate,
		RTT:      tcpRTT,
		Duration: duration,
		Seed:     seed,
		Workers:  1,
		Cells:    []sizing.CellSpec{{Flows: tcpFlows, Rule: sizing.RuleBDP, Scheme: tcpScheme}},
	}
}

func realTCPCell(seed int64, duration float64) (sizing.Cell, error) {
	rep, err := sizing.Sweep(context.Background(), tcpConfig(seed, duration))
	if err != nil {
		return sizing.Cell{}, err
	}
	return rep.Cells[0], nil
}

// tcpSeed is the seed sizing.Sweep hands its only cell.
func tcpSeed(seed int64) int64 {
	if seed == 0 {
		seed = 1 // sizing.Config's default
	}
	return sim.DeriveSeed(seed, 0)
}

// tcpTwin is the sizing cell's closed-loop data plane rebuilt from
// public constructors, with every layer boundary optionally wrapped.
type tcpTwin struct {
	s         *sim.Simulator
	sc        *scheme.Scheme
	col       *stats.Collector
	delivery  *network.Delivery
	qdelay    *stats.DelayTracker
	tcps      []*source.TCP
	buffer    units.Bytes
	required  units.Bytes
	duration  float64
	arrivals  int64
	mgr       *tracedManager
	delivered source.Sink
}

func newTCPTwin(seed int64, duration float64, rec *Recorder) (*tcpTwin, *bool, error) {
	n := tcpFlows
	c := tcpLinkRate
	t := &tcpTwin{s: sim.New(), duration: duration}
	s := t.s
	var stop *bool
	if rec != nil {
		stop = armStop(s, duration)
	}
	t.buffer = sizing.RuleBDP.Resolve(c, tcpRTT, n, tcpSegment)
	rho := units.Rate(0.95 * c.BitsPerSecond() / float64(n))
	peak := min(units.Rate(20*rho.BitsPerSecond()), c)
	specs := make([]packet.FlowSpec, n)
	for i := range specs {
		specs[i] = packet.FlowSpec{PeakRate: peak, TokenRate: rho, BucketSize: 2 * tcpSegment}
	}
	var err error
	if t.required, err = core.RequiredBufferFIFO(specs, c); err != nil {
		return nil, nil, err
	}
	if t.sc, err = scheme.Parse(tcpScheme); err != nil {
		return nil, nil, err
	}
	mgr, sch, err := t.sc.Build(scheme.Config{
		Specs:      specs,
		LinkRate:   c,
		Buffer:     t.buffer,
		PacketSize: tcpSegment,
		Now:        s.Now,
		Seed:       seed,
	})
	if err != nil {
		return nil, nil, err
	}
	t.col = stats.NewCollector(n, duration/4)
	var link *sched.Link
	var linkSink source.Sink
	t.delivery = network.NewDeliveryLight(s, n)
	t.delivered = t.delivery
	if rec == nil {
		link = sched.NewLink(s, c, sch, mgr, t.col)
		linkSink = countingSink{link, &t.arrivals}
	} else {
		t.mgr = &tracedManager{Manager: mgr, rec: rec}
		link = sched.NewLink(s, c, tracedScheduler{sch, rec}, t.mgr, t.col)
		linkSink = countingSink{tracedSink{link, rec, lLink}, &t.arrivals}
		t.delivered = tracedSink{t.delivery, rec, lDelivery}
	}
	t.qdelay = stats.NewDelayTracker(0)
	rng := sim.NewRand(seed)
	props := make([]float64, n)
	for i := range props {
		props[i] = (tcpRTT / 2) * (0.5 + rng.Float64())
	}
	link.OnDepart = func(p *packet.Packet) {
		if now := s.Now(); now >= duration/4 {
			t.qdelay.Add(now - p.Arrived)
		}
		s.After(props[p.Flow], func() {
			p.Arrived = s.Now()
			t.delivered.Receive(p)
		})
	}
	t.tcps = make([]*source.TCP, n)
	onAck := func(ap *packet.Packet) { t.tcps[ap.Flow].OnAck(ap) }
	link.OnDrop = func(p *packet.Packet) { t.tcps[p.Flow].OnDrop(p) }
	if rec != nil {
		onAck = func(ap *packet.Packet) {
			rec.Begin(lAck, pktID(ap))
			t.tcps[ap.Flow].OnAck(ap)
			rec.End()
		}
		link.OnDrop = func(p *packet.Packet) {
			rec.Begin(lDrop, pktID(p))
			t.tcps[p.Flow].OnDrop(p)
			rec.End()
		}
	}
	spread := 2 * tcpRTT
	for i := 0; i < n; i++ {
		t.tcps[i] = source.NewTCP(s, source.TCPConfig{Flow: i, SegmentSize: tcpSegment, PaceRate: c}, linkSink)
		t.delivery.SetAcker(i, tcpAckSize, func(ap *packet.Packet) {
			s.After(props[ap.Flow], func() { onAck(ap) })
		})
		s.At(rng.Float64()*spread, t.tcps[i].Start)
	}
	return t, stop, nil
}

// cell computes the measurements exactly as the sizing sweep does.
func (t *tcpTwin) cell() sizing.Cell {
	c := tcpLinkRate
	cell := sizing.Cell{
		Flows:          tcpFlows,
		Rule:           sizing.RuleBDP.Name,
		Scheme:         t.sc.Spec(),
		Buffer:         t.buffer,
		BufferPkts:     float64(t.buffer) / float64(tcpSegment),
		RequiredBuffer: t.required,
		Bound:          t.buffer >= t.required,
		Utilization:    t.col.AggregateThroughput(t.duration).BitsPerSecond() / c.BitsPerSecond(),
		Loss:           t.col.LossRatio(),
		MeanDelayMs:    1e3 * t.qdelay.Mean(),
		MaxDelayMs:     1e3 * t.qdelay.Max(),
		Events:         t.s.Steps(),
	}
	if t.qdelay.Count() > 0 {
		cell.P99DelayMs = 1e3 * t.qdelay.Quantile(0.99)
	}
	goodput := make([]float64, tcpFlows)
	for i, tcp := range t.tcps {
		goodput[i] = float64(t.delivery.Goodput(i).Bytes)
		cell.Retransmits += tcp.Retransmits()
		cell.Timeouts += tcp.Timeouts()
	}
	var sum, sq float64
	for _, x := range goodput {
		sum += x
		sq += x * x
	}
	if sq != 0 {
		cell.Fairness = sum * sum / (float64(len(goodput)) * sq)
	}
	return cell
}

// tcpTwinCell runs the untraced twin of the workload's cell and returns
// the packets it offered and its cell.
func tcpTwinCell(seed int64) (int64, sizing.Cell, error) {
	tw, _, err := newTCPTwin(tcpSeed(seed), tcpDuration, nil)
	if err != nil {
		return 0, sizing.Cell{}, err
	}
	tw.s.RunUntil(tcpDuration)
	return tw.arrivals, tw.cell(), nil
}

func runTCPSizing(c *runCtx) error {
	if c.trace {
		return traceTCPSizing(c)
	}
	setup, err := setupTime(tcpSetupSamples, tcpSetupReps, func() error {
		_, err := realTCPCell(c.seed, tcpSetupHorizon)
		return err
	})
	if err != nil {
		return err
	}
	c.set("setup_s", setup)

	// The twin, run once untimed and released before the timed phase,
	// counts the packets every iteration offers and must reproduce the
	// real entry point's cell.
	arrivals, twinCell, err := tcpTwinCell(c.seed)
	if err != nil {
		return err
	}

	var first sizing.Cell
	var tp throughput
	hp := startHeapPeak()
	start := time.Now()
	for tp.iters() == 0 || time.Since(start).Seconds() < c.seconds {
		c0 := cpuTime()
		cell, err := realTCPCell(c.seed, tcpDuration)
		cpu := cpuTime() - c0
		c.attempt(1, 0)
		if err != nil {
			hp.stop()
			return err
		}
		hp.mark()
		if tp.iters() == 0 {
			first = cell
		} else {
			c.check(reflect.DeepEqual(cell, first), "repeated cell differs from the first")
		}
		tp.add(float64(arrivals), cpu)
	}
	c.set("heap_live_peak_mb", hp.stop())
	tp.report(c)

	c.check(first.Utilization >= tcpUtilFloor, "utilization %g at the bdp buffer, want >= %g", first.Utilization, tcpUtilFloor)
	c.check(reflect.DeepEqual(twinCell, first), "twin cell differs from sizing.Sweep")
	fmt.Fprintf(c.out, "tcp-sizing runs=%d pkts_per_run=%d events_per_run=%d utilization=%.4f loss=%.4f sim_s=%g\n",
		tp.iters(), arrivals, first.Events, first.Utilization, first.Loss, tcpDuration)
	return nil
}

func traceTCPSizing(c *runCtx) error {
	want, err := realTCPCell(c.seed, tcpDuration)
	c.attempt(1, 0)
	if err != nil {
		return err
	}
	c.check(want.Utilization >= tcpUtilFloor, "utilization %g at the bdp buffer, want >= %g", want.Utilization, tcpUtilFloor)
	rt0 := readRT()
	if _, err := realTCPCell(c.seed, tcpDuration); err != nil {
		return err
	}
	gc := readRT().since(rt0)

	plain, _, err := newTCPTwin(tcpSeed(c.seed), tcpDuration, nil)
	if err != nil {
		return err
	}
	t0 := time.Now()
	plain.s.RunUntil(tcpDuration)
	plainWall := time.Since(t0)

	rec := NewRecorder(simLayers, spanSample)
	tw, stop, err := newTCPTwin(tcpSeed(c.seed), tcpDuration, rec)
	if err != nil {
		return err
	}
	t0 = time.Now()
	depth := stepTraced(tw.s, stop, tcpDuration, rec)
	tracedWall := time.Since(t0)
	got := tw.cell()
	got.Events-- // the stop event
	c.check(reflect.DeepEqual(got, want), "traced twin cell differs from sizing.Sweep (events %d vs %d)", got.Events, want.Events)
	c.check(reflect.DeepEqual(plain.cell(), want), "plain twin cell differs from sizing.Sweep")
	rec.verify(c, "tcp-sizing trace")

	arrivals := float64(tw.arrivals)
	setSimLayers(c, rec, float64(got.Events), arrivals, depth)
	c.set("buffer.drop_frac", ratio(float64(tw.mgr.drops), float64(rec.Calls(lAdmit))))
	c.set("source.retx_frac", ratio(float64(got.Retransmits), arrivals))
	setPktGC(c, gc, arrivals)
	c.set("trace.overhead_frac", tracedWall.Seconds()/plainWall.Seconds()-1)
	c.set("trace.residual_frac", rec.Residual(tracedWall))
	return writeSpans(c, map[string]*Recorder{"sim": rec})
}
