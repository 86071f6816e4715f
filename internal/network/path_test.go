package network_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"bufqos/internal/packet"
	"bufqos/internal/topology"
	"bufqos/internal/units"
)

// Multi-hop paths are built by the topology engine, which chains the
// links of a route and ends it in a Delivery sink. These tests pin the
// end-to-end behaviour observed at that sink.

// hop declares one link of a line topology n0 -> n1 -> ...
type hop struct {
	rate   units.Rate
	buffer units.Bytes
	prop   float64
	spec   string
}

// line builds and validates a line topology over hops; each flow's
// route is given as a [first, last) node index range.
func line(t *testing.T, hops []hop, flows []topology.Flow, routes [][2]int) *topology.Topology {
	t.Helper()
	node := func(i int) string { return string(rune('a' + i)) }
	topo := &topology.Topology{Name: "line"}
	for i, h := range hops {
		topo.Links = append(topo.Links, topology.Link{
			From: node(i), To: node(i + 1),
			Rate: h.rate, Buffer: h.buffer, PropDelay: h.prop, Spec: h.spec,
			Headroom: h.buffer / 5, // read by the sharing specs only
		})
	}
	for i := range flows {
		for n := routes[i][0]; n <= routes[i][1]; n++ {
			flows[i].RouteNodes = append(flows[i].RouteNodes, node(n))
		}
	}
	topo.Flows = flows
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	return topo
}

func run(t *testing.T, topo *topology.Topology, duration float64, seed int64) topology.Result {
	t.Helper()
	res, err := topology.Run(context.Background(), topo, topology.Options{Duration: duration, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// cbr is an unshaped constant-rate flow sending at rate under a small
// declared contract, so admission lets it in whatever it sends.
func cbr(rate units.Rate, declared units.Rate) topology.Flow {
	return topology.Flow{
		Spec:    packet.FlowSpec{TokenRate: declared, BucketSize: units.KiloBytes(10)},
		Source:  topology.SourceCBR,
		AvgRate: rate,
	}
}

func TestPathDeliversEndToEnd(t *testing.T) {
	r48, mb := units.MbitsPerSecond(48), units.MegaBytes(1)
	topo := line(t, []hop{{r48, mb, 0, "fifo+none"}, {r48, mb, 0, "fifo+none"}},
		[]topology.Flow{cbr(units.MbitsPerSecond(8), units.MbitsPerSecond(8))}, [][2]int{{0, 2}})
	res := run(t, topo, 2, 1)

	offered := res.Flows[0].Offered.Packets
	// Packets are 0.5 ms apart and take 83 µs per hop, so at most the
	// last one is still in flight when the run stops.
	if got := res.Flows[0].Delivered.Packets; got < offered-1 || got > offered {
		t.Errorf("delivered %d of %d packets end-to-end", got, offered)
	}
	// Both hops saw every packet.
	for _, l := range res.Links {
		if got := l.Flows[0].Departed.Packets; got < offered-1 || got > offered {
			t.Errorf("%s departed %d, want %d", l.Name, got, offered)
		}
		if d := l.Flows[0].Dropped.Packets; d != 0 {
			t.Errorf("%s dropped %d packets", l.Name, d)
		}
	}
}

func TestEndToEndDelayIsSumOfHops(t *testing.T) {
	// Uncontended 2-hop path: every packet's end-to-end delay is exactly
	// two transmission times plus the propagation delays.
	rate := units.MbitsPerSecond(8)
	const prop = 0.003
	topo := line(t, []hop{{rate, units.MegaBytes(1), prop, "fifo+none"}, {rate, units.MegaBytes(1), prop, "fifo+none"}},
		[]topology.Flow{cbr(units.MbitsPerSecond(0.1), units.MbitsPerSecond(0.1))}, [][2]int{{0, 2}})
	res := run(t, topo, 1, 1)

	want := 2*units.TransmissionTime(500, rate) + 2*prop
	f := res.Flows[0]
	if f.Delivered.Packets == 0 {
		t.Fatal("nothing delivered")
	}
	if math.Abs(f.MaxDelay-want) > 1e-9 || math.Abs(f.MeanDelay-want) > 1e-9 {
		t.Errorf("end-to-end delay max %v mean %v, want %v", f.MaxDelay, f.MeanDelay, want)
	}
}

func TestBottleneckDropsAtSecondHop(t *testing.T) {
	// Hop 1 fast, hop 2 half the rate with a small buffer: losses occur
	// only at hop 2.
	topo := line(t, []hop{
		{units.MbitsPerSecond(48), units.MegaBytes(1), 0, "fifo+none"},
		{units.MbitsPerSecond(24), units.KiloBytes(20), 0, "fifo+none"},
	}, []topology.Flow{cbr(units.MbitsPerSecond(40), units.MbitsPerSecond(1))}, [][2]int{{0, 2}})
	res := run(t, topo, 2, 1)

	if d := res.Links[0].Flows[0].Dropped.Packets; d != 0 {
		t.Errorf("fast hop dropped %d packets", d)
	}
	if d := res.Links[1].Flows[0].Dropped.Packets; d == 0 {
		t.Error("bottleneck hop dropped nothing despite 40 Mb/s into 24 Mb/s")
	}
	// Delivered rate caps at the bottleneck.
	if thr := res.Flows[0].Throughput; thr.BitsPerSecond() > 24e6*1.02 {
		t.Errorf("delivered %v above bottleneck rate", thr)
	}
}

func TestPerHopThresholdsProtectAcrossHops(t *testing.T) {
	// The backbone story: a conformant flow crosses two hops, each with
	// threshold buffer management; a local aggressor at EACH hop cannot
	// starve it. Flow 0 is the end-to-end conformant flow; flows 1 and 2
	// are hop-local aggressors sending at the full link rate.
	linkRate, rho := units.MbitsPerSecond(48), units.MbitsPerSecond(8)
	h := hop{linkRate, units.KiloBytes(500), 0, "fifo+threshold"}
	topo := line(t, []hop{h, h}, []topology.Flow{
		cbr(rho, rho), cbr(linkRate, rho), cbr(linkRate, rho),
	}, [][2]int{{0, 2}, {0, 1}, {1, 2}})
	res := run(t, topo, 10, 1)

	if thr := res.Flows[0].Throughput; thr.BitsPerSecond() < rho.BitsPerSecond()*0.93 {
		t.Errorf("end-to-end conformant throughput %v, want ≈ %v", thr, rho)
	}
	for _, l := range res.Links {
		if d := l.Flows[0].Dropped.Packets; d != 0 {
			t.Errorf("%s dropped %d conformant packets", l.Name, d)
		}
		if l.Totals.Dropped.Packets == 0 {
			t.Errorf("%s dropped nothing: its aggressor was not contending", l.Name)
		}
	}
}

func TestForwardedCountsPerFlow(t *testing.T) {
	// Forwarded counts every departure handed onward, to the next hop or
	// to the delivery sink: flow 0 crosses both hops, flow 1 ends after
	// the first, and flow 2 joins after the run ends, so never sends.
	r48, mb := units.MbitsPerSecond(48), units.MegaBytes(1)
	flows := []topology.Flow{
		cbr(units.MbitsPerSecond(2), units.MbitsPerSecond(2)),
		cbr(units.MbitsPerSecond(2), units.MbitsPerSecond(2)),
		cbr(units.MbitsPerSecond(2), units.MbitsPerSecond(2)),
	}
	for i := range flows {
		flows[i].Name = string(rune('x' + i))
	}
	topo := line(t, []hop{{r48, mb, 0, "fifo+none"}, {r48, mb, 0, "fifo+none"}}, flows, [][2]int{{0, 2}, {0, 1}, {1, 2}})
	topo.Events = []topology.Event{{At: 5, Kind: topology.EventJoin, Flow: "z"}}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	res := run(t, topo, 1, 1)

	hop0, hop1 := res.Links[0].Flows, res.Links[1].Flows
	if hop0[0].Forwarded == 0 || hop0[0].Forwarded != hop1[0].Departed.Packets+hop1[0].Dropped.Packets {
		t.Errorf("flow 0: hop 0 forwarded %d, hop 1 saw %d", hop0[0].Forwarded, hop1[0].Departed.Packets+hop1[0].Dropped.Packets)
	}
	if got, want := res.Flows[0].Delivered.Packets, hop1[0].Forwarded; got != want {
		t.Errorf("flow 0: delivered %d, last hop forwarded %d", got, want)
	}
	if got, want := res.Flows[1].Delivered.Packets, hop0[1].Forwarded; got == 0 || got != want {
		t.Errorf("flow 1 ends after hop 0: delivered %d, hop 0 forwarded %d", got, want)
	}
	if hop1[1].Forwarded != 0 {
		t.Errorf("flow 1 does not cross hop 1; forwarded %d there", hop1[1].Forwarded)
	}
	if hop1[2].Forwarded != 0 || res.Flows[2].Delivered.Packets != 0 {
		t.Errorf("flow 2 never sent; forwarded %d, delivered %d", hop1[2].Forwarded, res.Flows[2].Delivered.Packets)
	}
}

// mixedPath builds three shaped on/off flows crossing a line whose hops
// run different registry specs.
func mixedPath(t *testing.T, specs ...string) *topology.Topology {
	t.Helper()
	var hops []hop
	for i, spec := range specs {
		hops = append(hops, hop{units.MbitsPerSecond(48), units.KiloBytes(500), 0.0005 * float64(i), spec})
	}
	mk := func(peak, tok, bucketKB float64) topology.Flow {
		return topology.Flow{
			Spec: packet.FlowSpec{
				PeakRate:   units.MbitsPerSecond(peak),
				TokenRate:  units.MbitsPerSecond(tok),
				BucketSize: units.KiloBytes(bucketKB),
			},
			Shaped: true,
		}
	}
	all := [2]int{0, len(specs)}
	return line(t, hops, []topology.Flow{mk(16, 2, 50), mk(40, 8, 100), mk(16, 4, 50)}, [][2]int{all, all, all})
}

// TestMixedSchemePathDeterministicAcrossSeeds: a path mixing two
// different registry specs per hop delivers sane end-to-end statistics,
// and rerunning the identical scenario is bit-deterministic for every
// seed.
func TestMixedSchemePathDeterministicAcrossSeeds(t *testing.T) {
	topo := mixedPath(t, "fifo+threshold", "wfq+sharing")
	for _, seed := range []int64{1, 7, 42} {
		a, b := run(t, topo, 5, seed), run(t, topo, 5, seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: identical mixed-scheme runs diverged:\n%+v\n%+v", seed, a, b)
		}
		var total units.Bytes
		for i, f := range a.Flows {
			if f.Delivered.Packets <= 0 {
				t.Errorf("seed %d: flow %d delivered nothing end-to-end", seed, i)
			}
			total += f.Delivered.Bytes
		}
		// Shaped token rates sum to 14 Mb/s — delivery must stay inside
		// the link capacity but carry a meaningful share of the offer.
		if got := total.Bits() / 5; got > 48e6 {
			t.Errorf("seed %d: delivered %v b/s above the 48 Mb/s link", seed, got)
		} else if got < 1e6 {
			t.Errorf("seed %d: delivered only %v b/s end-to-end", seed, got)
		}
	}
}

// TestThreeHopMixedSchemeDeterministicAcrossWorkers: running the same
// seeds of a three-hop mixed-scheme path on the experiment worker pool
// yields bit-identical results for any worker count.
func TestThreeHopMixedSchemeDeterministicAcrossWorkers(t *testing.T) {
	topo := mixedPath(t, "fifo+threshold", "wfq+sharing", "drr+dynthresh?alpha=2")
	opts := topology.Options{Duration: 5, Seed: 2}
	want, err := topology.RunMany(context.Background(), topo, opts, 6, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := topology.RunMany(context.Background(), topo, opts, 6, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results diverged from sequential baseline", workers)
		}
	}
}
