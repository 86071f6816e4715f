package main

// workload is one named input set of the benchmark, with the reason it
// exists and the layers it exercises and bypasses. The names and reasons
// are mirrored in BENCHMARK.json (spec_test.go keeps the two in step).
type workload struct {
	name      string
	why       string
	exercised []string
	bypassed  []string
	// procs, when not 0, is the GOMAXPROCS the workload runs at. A
	// one-goroutine simulation runs at 1, so that its garbage collector
	// shares its processor instead of racing it on a second one that a
	// shared host may be giving to someone else.
	procs int
	run   func(c *runCtx) error
}

// workloads lists the benchmark's workloads in the order BENCHMARK.json
// gives them.
var workloads = []workload{
	{
		name:      "paper-link",
		why:       "paper Table 1 link, 9 ON-OFF flows, fifo+sharing then wfq+sharing; exercises sim, source, buffer, sched (WFQ); bypasses network, topology, shard, qosd",
		exercised: []string{"sim", "source", "buffer", "sched"},
		bypassed:  []string{"network", "topology", "shard", "qosd", "packet", "core"},
		procs:     1,
		run:       runPaperLink,
	},
	{
		name:      "topo-random",
		why:       "200-link 20k-flow random topology, fifo+threshold drop-free, 2 shards; exercises sim (deep heap), topology, shard; bypasses WFQ, drop path, tcp, qosd",
		exercised: []string{"sim", "topology", "shard", "buffer", "sched"},
		bypassed:  []string{"source.tcp", "network.tcp", "sched.wfq", "buffer.drop", "qosd", "packet", "core"},
		run:       runTopoRandom,
	},
	{
		name:      "tcp-sizing",
		why:       "one sizing cell, 1000 NewReno flows, 1 Gb/s, 40 ms RTT, bdp buffer, fifo+sharing; exercises sim, source.tcp, network, buffer, sched; bypasses topology, shard, qosd",
		exercised: []string{"sim", "source.tcp", "network", "buffer", "sched"},
		bypassed:  []string{"source.shaper", "sched.wfq", "topology", "shard", "qosd", "packet", "core"},
		procs:     1,
		run:       runTCPSizing,
	},
	{
		name:      "qosd-churn",
		why:       "qosd over loopback, 1000 links, seeded join/leave/reroute batches then single joins on a rate ladder; exercises http, qosd, packet, core; bypasses the simulator",
		exercised: []string{"http", "qosd", "packet", "core", "loadgen"},
		bypassed:  []string{"sim", "source", "buffer", "sched", "network", "topology.run", "shard"},
		run:       runQosdChurn,
	},
}

// metric describes one reported figure. Bound is set only for
// end-to-end metrics: the share of the parent's median by which the
// metric may worsen before a change counts as a regression.
type metric struct {
	name   string
	unit   string
	better string
	bound  float64
	doc    string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25, "median time to set the workload up before the timed phase (Generate, qosd.New, data-plane assembly)"},
	{"ops_per_cpu_s_p10", "1/s", "higher", 0.25, "10th percentile over timed iterations of work per second of process CPU time (all threads, user and system; time the host gives elsewhere is not counted): simulated packets offered to the first queue (paper-link: after its warm-up), admission decisions in 1024-op batches (qosd-churn)"},
	{"heap_live_peak_mb", "MB", "lower", 0.25, "median over timed iterations of the peak /gc/heap/live:bytes within one iteration"},
}

// perLayer are the metrics of single layers, reported by the traced run.
// A workload that bypasses a layer reports 0 for it.
var perLayer = []metric{
	{"sim.events_per_pkt", "count", "lower", 0, "kernel events dispatched per packet offered to the first queue"},
	{"sim.heap_depth_max", "count", "lower", 0, "deepest event heap seen"},
	{"sim.step_self_ns", "ns", "lower", 0, "time per Step() minus wrapped children (topo-random: host ns per event at 1 shard, nothing wrapped)"},
	{"source.sink_ns", "ns", "lower", 0, "Shaper/Meter Receive self time per call"},
	{"source.tcp_ack_ns", "ns", "lower", 0, "TCP.OnAck time per call"},
	{"source.tcp_drop_ns", "ns", "lower", 0, "TCP.OnDrop time per call"},
	{"source.retx_frac", "frac", "lower", 0, "retransmitted segments over segments sent (canary)"},
	{"buffer.admit_ns", "ns", "lower", 0, "buffer.Manager Admit time per call"},
	{"buffer.release_ns", "ns", "lower", 0, "buffer.Manager Release time per call"},
	{"buffer.drop_frac", "frac", "lower", 0, "rejected admissions over attempts"},
	{"sched.enqueue_ns", "ns", "lower", 0, "Scheduler Enqueue time per call"},
	{"sched.dequeue_ns", "ns", "lower", 0, "Scheduler Dequeue time per call"},
	{"sched.link_receive_self_ns", "ns", "lower", 0, "Link.Receive minus manager and scheduler children"},
	{"sched.wfq_vt_advances_per_pkt", "count", "lower", 0, "WFQ virtual-time advances per packet offered"},
	{"network.delivery_ns", "ns", "lower", 0, "Delivery.Receive time per call, ACK generation included"},
	{"topology.build_s", "s", "lower", 0, "topology.Run at a near-zero horizon"},
	{"shard.speedup", "ratio", "higher", 0, "1-shard over 2-shard run time"},
	{"shard.exchanged_per_pkt", "count", "lower", 0, "cross-shard items per packet offered"},
	{"shard.stall_frac", "frac", "lower", 0, "shard rounds spent waiting on a peer"},
	{"shard.null_window_frac", "frac", "lower", 0, "shard rounds with nothing to send"},
	{"http.transport_us", "us", "lower", 0, "single-join loopback latency minus handler time"},
	{"qosd.handler_us", "us", "lower", 0, "handler time per single-join request"},
	{"qosd.decode_ns_per_op", "ns", "lower", 0, "strict JSON decode of a batch body per op"},
	{"packet.flowspec_parse_ns", "ns", "lower", 0, "FlowSpec.UnmarshalJSON per spec"},
	{"qosd.admit_ns_per_op", "ns", "lower", 0, "Server.Join/Leave/Reroute on a twin server per op"},
	{"core.admit_route_ns", "ns", "lower", 0, "ShardedAdmitter.AdmitRoute per join on a twin admitter"},
	{"qosd.encode_ns_per_op", "ns", "lower", 0, "JSON encode of a batch response per op"},
	{"qosd.admit_frac", "frac", "higher", 0, "admitted joins over joins (canary, deterministic per seed)"},
	{"loadgen.lag_p99_us", "us", "lower", 0, "p99 of how late the open-loop generator sent a request"},
	{"join_p50_us", "us", "lower", 0, "median single-join latency from due time at the reference rate"},
	{"join_p99_us", "us", "lower", 0, "p99 single-join latency from due time at the reference rate"},
	{"join_samples", "count", "higher", 0, "single joins behind join_p50_us and join_p99_us"},
	{"rate_at_slo", "1/s", "higher", 0, "highest ladder rate with join p99 within 1 ms and no growing backlog"},
	{"gc.allocs_per_pkt", "count", "lower", 0, "heap allocations per packet offered"},
	{"gc.alloc_bytes_per_pkt", "B", "lower", 0, "heap bytes allocated per packet offered"},
	{"gc.allocs_per_op", "count", "lower", 0, "heap allocations per admission decision (client and server)"},
	{"gc.cpu_frac", "frac", "lower", 0, "GC CPU over total CPU during the measured runs"},
	{"trace.overhead_frac", "frac", "lower", 0, "traced run time over untraced run time, minus one"},
	{"trace.residual_frac", "frac", "lower", 0, "share of the traced run covered by no span"},
	{"failed_frac", "frac", "lower", 0, "failed operations and checks over attempted"},
}

// lookupMetric returns the definition of name from either list.
func lookupMetric(name string) (metric, bool) {
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}
