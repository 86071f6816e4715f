package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"bufqos/internal/metrics"
	"bufqos/internal/topology"
)

// The topo-random workload: a generated 200-link, 20k-flow topology,
// provisioned drop-free, run by the sharded engine.
const (
	topoSpec         = "random?links=200,flows=20000,seed=%d"
	topoHorizon      = 0.03 // simulated seconds per run
	topoShards       = 2
	topoSetupReps    = 3
	topoBuildHorizon = 1e-6
)

func topoRun(t *topology.Topology, seed int64, shards int, horizon float64, reg *metrics.Registry) (topology.Result, error) {
	return topology.Run(context.Background(), t, topology.Options{
		Duration:      horizon,
		Seed:          seed,
		Shards:        shards,
		SkipLinkFlows: true,
		Metrics:       reg,
	})
}

// offeredPackets counts the packets the flows offered to their first
// hop.
func offeredPackets(res *topology.Result) int64 {
	var n int64
	for i := range res.Flows {
		n += res.Flows[i].Offered.Packets
	}
	return n
}

// verifyTopo runs topology.Verify and counts every assertion as a check.
func verifyTopo(c *runCtx, t *topology.Topology, res *topology.Result) {
	for _, a := range topology.Verify(t, res) {
		c.check(!a.Failed(), "verify %s %s: %v", a.Name, a.Detail, a.Err)
	}
}

func runTopoRandom(c *runCtx) error {
	spec := fmt.Sprintf(topoSpec, c.seed)
	if c.trace {
		return traceTopoRandom(c, spec)
	}
	var topo *topology.Topology
	setup, err := setupTime(topoSetupReps, 1, func() error {
		var err error
		topo, err = topology.Generate(spec)
		return err
	})
	if err != nil {
		return err
	}
	c.set("setup_s", setup)

	var first topology.Result
	var tp throughput
	hp := startHeapPeak()
	start := time.Now()
	for tp.iters() == 0 || time.Since(start).Seconds() < c.seconds {
		c0 := cpuTime()
		res, err := topoRun(topo, c.seed, topoShards, topoHorizon, nil)
		cpu := cpuTime() - c0
		c.attempt(1, 0)
		if err != nil {
			hp.stop()
			return err
		}
		hp.mark()
		if tp.iters() == 0 {
			first = res
		} else {
			c.check(reflect.DeepEqual(res, first), "repeated %d-shard run differs from the first", topoShards)
		}
		tp.add(float64(offeredPackets(&res)), cpu)
	}
	c.set("heap_live_peak_mb", hp.stop())
	tp.report(c)

	one, err := topoRun(topo, c.seed, 1, topoHorizon, nil)
	c.attempt(1, 0)
	if err != nil {
		return err
	}
	c.check(reflect.DeepEqual(one, first), "1-shard and %d-shard results differ", topoShards)
	verifyTopo(c, topo, &first)
	fmt.Fprintf(c.out, "topo-random runs=%d pkts_per_run=%d events_per_run=%d sim_s=%g shards=%d\n",
		tp.iters(), offeredPackets(&first), first.Events, topoHorizon, topoShards)
	return nil
}

// Layers of the topo-random trace: whole calls into the engine, which
// exposes no interfaces to wrap.
const (
	lTopoBuild = iota
	lTopoRun1
	lTopoRun2
	lTopoVerify
)

func traceTopoRandom(c *runCtx, spec string) error {
	topo, err := topology.Generate(spec)
	if err != nil {
		return err
	}
	rec := NewRecorder([]string{"topology.build", "topology.run_1shard", "topology.run_2shard", "topology.verify"}, 1)
	start := time.Now()
	timed := func(layer int, fn func() error) (time.Duration, error) {
		rec.Begin(layer, 0)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		rec.End()
		c.attempt(1, 0)
		return d, err
	}

	var builds []float64
	for i := 0; i < topoSetupReps; i++ {
		d, err := timed(lTopoBuild, func() error {
			_, err := topoRun(topo, c.seed, 1, topoBuildHorizon, nil)
			return err
		})
		if err != nil {
			return err
		}
		builds = append(builds, d.Seconds())
	}
	build := median(builds)

	// Untraced 1- and 2-shard runs give the speedup and the runtime
	// counters; instrumented ones give the kernel and shard counts.
	var one, two, one2, two2 topology.Result
	t1, err := timed(lTopoRun1, func() (err error) { one, err = topoRun(topo, c.seed, 1, topoHorizon, nil); return })
	if err != nil {
		return err
	}
	rt0 := readRT()
	t2, err := timed(lTopoRun2, func() (err error) { two, err = topoRun(topo, c.seed, topoShards, topoHorizon, nil); return })
	if err != nil {
		return err
	}
	gc := readRT().since(rt0)
	reg1, reg2 := metrics.NewRegistry(), metrics.NewRegistry()
	if _, err := timed(lTopoRun1, func() (err error) { one2, err = topoRun(topo, c.seed, 1, topoHorizon, reg1); return }); err != nil {
		return err
	}
	t2m, err := timed(lTopoRun2, func() (err error) { two2, err = topoRun(topo, c.seed, topoShards, topoHorizon, reg2); return })
	if err != nil {
		return err
	}
	c.check(reflect.DeepEqual(one, two), "1-shard and %d-shard results differ", topoShards)
	c.check(reflect.DeepEqual(one, one2) && reflect.DeepEqual(one, two2), "instrumented runs differ from plain ones")
	if _, err := timed(lTopoVerify, func() error { verifyTopo(c, topo, &one); return nil }); err != nil {
		return err
	}
	rec.verify(c, "topo-random trace")

	offered := float64(offeredPackets(&one))
	var dropped, arrived int64
	for i := range one.Links {
		dropped += one.Links[i].Totals.Dropped.Packets
		arrived += one.Links[i].Totals.Offered.Packets
	}
	windows, _ := reg2.Value("shard.windows")
	var exchanged, stalls, nulls float64
	for i := 0; i < topoShards; i++ {
		v, _ := reg2.Value(fmt.Sprintf("shard.exchanged.%d", i))
		exchanged += v
		v, _ = reg2.Value(fmt.Sprintf("shard.stalls.%d", i))
		stalls += v
		v, _ = reg2.Value(fmt.Sprintf("shard.null_bundles.%d", i))
		nulls += v
	}
	rounds := windows * topoShards

	c.set("topology.build_s", build)
	c.set("sim.events_per_pkt", ratio(float64(one.Events), offered))
	c.set("sim.heap_depth_max", float64(reg1.Gauge("sim.heap_depth").Max()))
	c.set("sim.step_self_ns", ratio(1e9*(t1.Seconds()-build), float64(one.Events)))
	c.set("buffer.drop_frac", ratio(float64(dropped), float64(arrived)))
	c.set("shard.speedup", t1.Seconds()/t2.Seconds())
	c.set("shard.exchanged_per_pkt", ratio(exchanged, offered))
	c.set("shard.stall_frac", ratio(stalls, rounds))
	c.set("shard.null_window_frac", ratio(nulls, rounds))
	setPktGC(c, gc, offered)
	c.set("trace.overhead_frac", t2m.Seconds()/t2.Seconds()-1)
	c.set("trace.residual_frac", rec.Residual(time.Since(start)))
	return writeSpans(c, map[string]*Recorder{"topology": rec})
}
