package bufqos_test

import (
	"context"
	"math"
	"testing"

	"bufqos/internal/buffer"
	"bufqos/internal/core"
	"bufqos/internal/experiment"
	"bufqos/internal/fluid"
	"bufqos/internal/packet"
	"bufqos/internal/sched"
	"bufqos/internal/sim"
	"bufqos/internal/source"
	"bufqos/internal/stats"
	"bufqos/internal/units"
)

// TestProposition1Packetized verifies the paper's central result on the
// packet-level simulator with the exact adversary of Example 1: a
// FeedbackGreedy flow that keeps its occupancy pinned at its threshold.
// The conformant CBR flow, given threshold B·ρ/R plus one packet of
// packetization slack, must lose nothing and receive its rate.
func TestProposition1Packetized(t *testing.T) {
	linkRate := units.MbitsPerSecond(48)
	rho := units.MbitsPerSecond(8)
	bufSize := units.MegaBytes(1)
	const pkt = units.Bytes(500)

	s := sim.New()
	col := stats.NewCollector(2, 0)
	th := core.PeakRateThreshold(rho, linkRate, bufSize)
	mgr := buffer.NewFixedThreshold(bufSize, []units.Bytes{th + pkt, bufSize - th - pkt})
	link := sched.NewLink(s, linkRate, sched.NewFIFO(), mgr, col)

	greedy := source.NewFeedbackGreedy(s, 1, pkt, mgr, link)
	link.OnDepart = greedy.DepartureHook()
	greedy.Kick()

	victim := source.NewCBR(s, 0, pkt, rho, link)
	victim.Start()

	const dur = 20.0
	s.RunUntil(dur)

	if drops := col.Flow(0).Dropped.Total().Packets; drops != 0 {
		t.Errorf("Proposition 1 violated on the packet level: %d conformant drops", drops)
	}
	// Long-run rate approaches ρ (the start-up transient starves it, as
	// Example 1 derives, so allow a few percent).
	got := col.FlowThroughput(0, dur)
	if got.BitsPerSecond() < rho.BitsPerSecond()*0.95 {
		t.Errorf("conformant flow got %v, want ≈ %v", got, rho)
	}
	// The greedy flow keeps its occupancy pinned at its threshold.
	if occ := mgr.Occupancy(1); occ < (bufSize-th-pkt)-2*pkt {
		t.Errorf("greedy occupancy %v not pinned near %v", occ, bufSize-th-pkt)
	}
	// And it takes the remaining capacity: R − ρ.
	greedyRate := col.FlowThroughput(1, dur)
	want := linkRate - rho
	if math.Abs(greedyRate.BitsPerSecond()-want.BitsPerSecond())/want.BitsPerSecond() > 0.05 {
		t.Errorf("greedy rate %v, want ≈ R−ρ = %v", greedyRate, want)
	}
}

// TestProposition1NecessityPacketized shrinks the victim's threshold by
// 20% and demands losses — the necessity half of Example 1, on packets.
func TestProposition1NecessityPacketized(t *testing.T) {
	linkRate := units.MbitsPerSecond(48)
	rho := units.MbitsPerSecond(8)
	bufSize := units.MegaBytes(1)
	const pkt = units.Bytes(500)

	s := sim.New()
	col := stats.NewCollector(2, 0)
	th := units.Bytes(float64(core.PeakRateThreshold(rho, linkRate, bufSize)) * 0.8)
	mgr := buffer.NewFixedThreshold(bufSize, []units.Bytes{th, bufSize - th})
	link := sched.NewLink(s, linkRate, sched.NewFIFO(), mgr, col)

	greedy := source.NewFeedbackGreedy(s, 1, pkt, mgr, link)
	link.OnDepart = greedy.DepartureHook()
	greedy.Kick()
	victim := source.NewCBR(s, 0, pkt, rho, link)
	victim.Start()

	s.RunUntil(20)
	if col.Flow(0).Dropped.Total().Packets == 0 {
		t.Error("under-allocated threshold lost nothing — necessity example not reproduced")
	}
}

// TestExample1DynamicsPacketized cross-validates the fluid recursion
// against the packet simulator: the victim's throughput measured over
// the whole run must exceed the early-interval rates and approach ρ₁,
// and the greedy flow's rate must approach R−ρ₁.
func TestExample1DynamicsPacketized(t *testing.T) {
	linkRate := units.MbitsPerSecond(48)
	rho := units.MbitsPerSecond(8)
	bufSize := units.MegaBytes(1)

	ex, err := fluid.NewExample1(rho, linkRate, bufSize)
	if err != nil {
		t.Fatal(err)
	}
	_, r1Inf, r2Inf := ex.Limits()

	s := sim.New()
	col := stats.NewCollector(2, 10) // measure the settled tail only
	th := core.PeakRateThreshold(rho, linkRate, bufSize)
	mgr := buffer.NewFixedThreshold(bufSize, []units.Bytes{th + 500, bufSize - th - 500})
	link := sched.NewLink(s, linkRate, sched.NewFIFO(), mgr, col)
	greedy := source.NewFeedbackGreedy(s, 1, 500, mgr, link)
	link.OnDepart = greedy.DepartureHook()
	greedy.Kick()
	victim := source.NewCBR(s, 0, 500, rho, link)
	victim.Start()

	const dur = 40.0
	s.RunUntil(dur)

	v := col.FlowThroughput(0, dur)
	g := col.FlowThroughput(1, dur)
	if math.Abs(v.BitsPerSecond()-r1Inf.BitsPerSecond())/r1Inf.BitsPerSecond() > 0.03 {
		t.Errorf("victim settled at %v, fluid limit is %v", v, r1Inf)
	}
	if math.Abs(g.BitsPerSecond()-r2Inf.BitsPerSecond())/r2Inf.BitsPerSecond() > 0.03 {
		t.Errorf("greedy settled at %v, fluid limit is %v", g, r2Inf)
	}
}

// TestRemark1ExcessTrafficNotPenalized checks the Remark 1 claim: a
// non-conformant flow delivers at least as much as its conformant
// (green) sub-stream would alone — excess traffic may be lost, but
// conformance is never punished.
func TestRemark1ExcessTrafficNotPenalized(t *testing.T) {
	linkRate := units.MbitsPerSecond(48)
	bufSize := units.KiloBytes(300)
	spec := packet.FlowSpec{
		PeakRate:   units.MbitsPerSecond(40),
		TokenRate:  units.MbitsPerSecond(2),
		BucketSize: units.KiloBytes(50),
	}

	s := sim.New()
	col := stats.NewCollector(2, 1)
	th, err := core.Thresholds([]packet.FlowSpec{spec, {TokenRate: units.MbitsPerSecond(30), BucketSize: units.KiloBytes(100)}}, linkRate, bufSize)
	if err != nil {
		t.Fatal(err)
	}
	mgr := buffer.NewFixedThreshold(bufSize, th)
	link := sched.NewLink(s, linkRate, sched.NewFIFO(), mgr, col)

	// Flow 0 sends 4× its token rate through a meter (so its packets
	// carry green/red colors); flow 1 is a heavy competitor.
	meter := source.NewMeter(s, spec, link)
	src := source.NewOnOff(s, sim.NewRand(3), source.OnOffConfig{
		Flow: 0, PacketSize: 500,
		PeakRate:  units.MbitsPerSecond(40),
		AvgRate:   units.MbitsPerSecond(8),
		MeanBurst: units.KiloBytes(250),
	}, meter)
	src.Start()
	comp := source.NewSaturating(s, 1, 500, units.MbitsPerSecond(40), link)
	comp.Start()

	const dur = 20.0
	s.RunUntil(dur)

	delivered := col.Flow(0).Departed.Total().Bytes
	greenOffered := col.Flow(0).Offered.Conformant.Bytes
	// Remark 1: at least as many bits get through as there are
	// conformant bits (tolerance: what is still queued, ≤ threshold).
	if delivered+th[0] < greenOffered {
		t.Errorf("delivered %v < conformant volume %v: excess traffic was penalized", delivered, greenOffered)
	}
}

// TestWFQMatchesGPSReference replays a randomized arrival script on the
// packetized WFQ and on a brute-force fluid GPS reference, and checks
// the PGPS bound: every packet finishes no later than its GPS finish
// time plus one maximum packet time.
func TestWFQMatchesGPSReference(t *testing.T) {
	const nflows = 3
	rate := units.MbitsPerSecond(12)
	weights := []units.Rate{units.MbitsPerSecond(2), units.MbitsPerSecond(4), units.MbitsPerSecond(6)}

	type arrival struct {
		at   float64
		flow int
		size units.Bytes
	}
	rng := sim.NewRand(77)
	var script []arrival
	at := 0.0
	for i := 0; i < 300; i++ {
		at += rng.Float64() * 0.002
		script = append(script, arrival{
			at:   at,
			flow: rng.Intn(nflows),
			size: units.Bytes(100 + rng.Intn(1400)),
		})
	}

	// Packetized WFQ run, recording departure times per (flow, seq).
	s := sim.New()
	w := sched.NewWFQ(rate, s.Now, weights)
	link := sched.NewLink(s, rate, w, buffer.NewUnlimited(nflows), nil)
	type key struct {
		flow int
		seq  uint64
	}
	depart := map[key]float64{}
	link.OnDepart = func(p *packet.Packet) { depart[key{p.Flow, p.Seq}] = s.Now() }
	seqs := make([]uint64, nflows)
	for _, a := range script {
		a := a
		p := &packet.Packet{Flow: a.flow, Size: a.size, Seq: seqs[a.flow]}
		seqs[a.flow]++
		s.At(a.at, func() {
			p.Arrived = s.Now()
			link.Receive(p)
		})
	}
	s.Run(0)

	// Brute-force fluid GPS reference: simulate per-flow fluid queues
	// served at φᵢ/Σφ_active · R between event times.
	gpsFinish := map[key]float64{}
	{
		type qpkt struct {
			k      key
			remain float64 // bits
		}
		queues := make([][]qpkt, nflows)
		phi := make([]float64, nflows)
		for i, wgt := range weights {
			phi[i] = wgt.BitsPerSecond()
		}
		seqs := make([]uint64, nflows)
		now := 0.0
		idx := 0
		r := rate.BitsPerSecond()
		for idx < len(script) || anyBacklog(queues) {
			// Advance fluid service until the next arrival.
			next := math.Inf(1)
			if idx < len(script) {
				next = script[idx].at
			}
			for now < next && anyBacklog(queues) {
				var sumPhi float64
				for i := range queues {
					if len(queues[i]) > 0 {
						sumPhi += phi[i]
					}
				}
				// Time until the first head-of-line packet empties.
				dt := next - now
				for i := range queues {
					if len(queues[i]) > 0 {
						need := queues[i][0].remain * sumPhi / (phi[i] * r)
						if need < dt {
							dt = need
						}
					}
				}
				for i := range queues {
					if len(queues[i]) == 0 {
						continue
					}
					queues[i][0].remain -= phi[i] / sumPhi * r * dt
					if queues[i][0].remain <= 1e-9 {
						gpsFinish[queues[i][0].k] = now + dt
						queues[i] = queues[i][1:]
					}
				}
				now += dt
			}
			if idx < len(script) {
				now = script[idx].at
				a := script[idx]
				queues[a.flow] = append(queues[a.flow], qpkt{
					k:      key{a.flow, seqs[a.flow]},
					remain: a.size.Bits(),
				})
				seqs[a.flow]++
				idx++
			}
		}
	}

	// PGPS bound: D_pgps ≤ D_gps + Lmax/R.
	lmaxTime := units.TransmissionTime(1500, rate)
	checked := 0
	for k, dp := range depart {
		dg, ok := gpsFinish[k]
		if !ok {
			t.Fatalf("GPS reference missing packet %v", k)
		}
		if dp > dg+lmaxTime+1e-9 {
			t.Errorf("packet %v: PGPS departure %v exceeds GPS %v + Lmax/R", k, dp, dg)
		}
		checked++
	}
	if checked != len(script) {
		t.Fatalf("checked %d of %d packets", checked, len(script))
	}
}

func anyBacklog[T any](queues [][]T) bool {
	for _, q := range queues {
		if len(q) > 0 {
			return true
		}
	}
	return false
}

// TestRequiredBufferLosslessPacketized validates equation (9) in the
// packet domain: six shaped Table 1 flows (the conformant set) on a
// buffer of exactly R·Σσ/(R−Σρ) plus one MTU per flow of packetization
// slack suffer zero loss under FIFO + thresholds.
func TestRequiredBufferLosslessPacketized(t *testing.T) {
	flows := experiment.Table1Flows()[:6] // the conformant rows
	specs := experiment.Specs(flows)
	need, err := core.RequiredBufferFIFO(specs, experiment.DefaultLinkRate)
	if err != nil {
		t.Fatal(err)
	}
	buf := need + units.Bytes(len(specs))*500
	res, err := experiment.Run(context.Background(), experiment.NewOptions(
		experiment.WithFlows(flows),
		experiment.WithSchemeSpec("fifo+threshold"),
		experiment.WithBuffer(buf),
		experiment.WithDuration(20),
		experiment.WithWarmup(1),
		experiment.WithSeed(3),
	))
	if err != nil {
		t.Fatal(err)
	}
	if res.ConformantLoss != 0 {
		t.Errorf("loss %v at the equation-(9) buffer %v, want 0", res.ConformantLoss, buf)
	}
	// Sanity: they also receive their rates (offered ≈ delivered).
	for i := range flows {
		if res.FlowThroughput[i].BitsPerSecond() < res.OfferedRate[i].BitsPerSecond()*0.999 {
			t.Errorf("flow %d delivered below offered", i)
		}
	}
}

// TestHybridMinimumBufferLossless validates equations (16)/(18) in the
// packet domain: the same six conformant flows, grouped as in §4.2 and
// run on the hybrid architecture at its computed minimum buffer (plus
// packetization slack), lose nothing.
func TestHybridMinimumBufferLossless(t *testing.T) {
	flows := experiment.Table1Flows()[:6]
	specs := experiment.Specs(flows)
	queueOf := []int{0, 0, 0, 1, 1, 1}
	groups, err := core.GroupFlows(specs, queueOf, 2)
	if err != nil {
		t.Fatal(err)
	}
	minBuf, err := core.HybridBufferTotal(experiment.DefaultLinkRate, groups)
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiment.Run(context.Background(), experiment.NewOptions(
		experiment.WithFlows(flows),
		experiment.WithSchemeSpec("hybrid+sharing"),
		experiment.WithBuffer(minBuf+units.Bytes(len(specs))*2*500),
		experiment.WithQueues(queueOf),
		experiment.WithDuration(20),
		experiment.WithWarmup(1),
		experiment.WithSeed(3),
	))
	if err != nil {
		t.Fatal(err)
	}
	if res.ConformantLoss != 0 {
		t.Errorf("hybrid loss %v at its minimum buffer %v, want 0", res.ConformantLoss, minBuf)
	}
}
