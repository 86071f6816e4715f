package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"bufqos/internal/core"
	"bufqos/internal/packet"
	"bufqos/internal/qosd"
	"bufqos/internal/scheme"
	"bufqos/internal/topology"
)

// The qosd-churn workload: an in-process qosd on a loopback listener,
// driven first by closed-loop 1024-op batches from qosdClients clients,
// then by single open-loop joins on a ladder of fixed rates.
const (
	qosdSpec      = "random?links=1000,flows=10000,seed=%d"
	qosdSetupReps = 3
	// qosdBatchShare is the share of the timed phase given to the
	// closed-loop batches; the ladder steps split the rest evenly.
	qosdBatchShare = 0.5
	qosdSLO        = time.Millisecond
	qosdRefRate    = 2000.0
	loopbackAddr   = "127.0.0.1"
	// reqHeader carries the request id the traced handler records.
	reqHeader = "X-Perfbench-Req"
)

// qosdLadder is the open-loop rate ladder, requests per second.
var qosdLadder = []float64{1000, 2000, 4000, 8000}

// daemon is a qosd served on a loopback listener.
type daemon struct {
	http   *http.Server
	url    string
	served chan error
}

func startDaemon(t *topology.Topology, wrap func(http.Handler) http.Handler) (*daemon, error) {
	srv, err := qosd.New(t, nil)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", loopbackAddr+":0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	d := &daemon{http: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.http.Serve(ln) }()
	return d, nil
}

// stop shuts the daemon down and waits for its serve loop to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// client posts pre-encoded bodies over one keep-alive connection pool.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: qosdClients, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, tr: tr}
}

func (c *client) post(url string, body []byte, id string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(reqHeader, id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// passResult is one closed-loop pass across clients.
type passResult struct {
	ops, failed int
	wall        time.Duration
	sum         uint64
	requests    []float64 // per-request latency, seconds
}

// runPass resets the daemon and sends every client's pass batches,
// the clients concurrently, each waiting for a reply before its next
// request.
func runPass(cl *client, d *daemon, load *churnLoad) (passResult, error) {
	code, _, err := cl.post(d.url+"/v1/restore", []byte("{}"), "")
	if err != nil || code != http.StatusOK {
		return passResult{}, fmt.Errorf("reset: code %d: %v", code, err)
	}
	type out struct {
		failed int
		sum    uint64
		lat    []float64
	}
	outs := make([]out, len(load.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for c, ld := range load.clients {
		wg.Add(1)
		go func(c int, ld *clientLoad) {
			defer wg.Done()
			h := newDecisionHash()
			o := &outs[c]
			for b, body := range ld.passBodies {
				ops := ld.pass[b*qosdBatch : min((b+1)*qosdBatch, len(ld.pass))]
				t0 := time.Now()
				code, resp, err := cl.post(d.url+"/v1/batch", body, "")
				o.lat = append(o.lat, time.Since(t0).Seconds())
				var br qosd.BatchResponse
				if err == nil && code == http.StatusOK {
					err = json.Unmarshal(resp, &br)
				}
				if err != nil || code != http.StatusOK || len(br.Decisions) != len(ops) {
					o.failed += len(ops)
					continue
				}
				for i, r := range br.Decisions {
					if r.Error != "" || r.Flow != ops[i].flow {
						o.failed++
					}
					h.add(ops[i].kind, ops[i].flow, r.Admitted, r.Link, r.Reason)
				}
			}
			o.sum = h.sum()
		}(c, ld)
	}
	wg.Wait()
	res := passResult{wall: time.Since(start), ops: load.passOps()}
	sums := make([]uint64, len(outs))
	for c, o := range outs {
		res.failed += o.failed
		sums[c] = o.sum
		res.requests = append(res.requests, o.lat...)
	}
	res.sum = combine(sums)
	return res, nil
}

// stepResult is one open-loop ladder step.
type stepResult struct {
	rate     float64
	latency  []float64 // µs from due time; +Inf for a failed request
	lags     []float64 // µs the generator woke after a due time
	failed   int
	backlog  bool
	transit  []float64 // µs from send to reply, with request ids
	ids      []string
	meetsSLO bool
}

// runStep sends step s's single joins at the step's rate: request k is
// due at start + k/rate, whatever happened to earlier requests, and is
// timed from its due time. Each client sends its own requests in order
// on its own connection.
func runStep(cl *client, d *daemon, load *churnLoad, s int, hashes []*decisionHash) stepResult {
	rate := load.rates[s]
	res := stepResult{rate: rate}
	var mu sync.Mutex
	var wg sync.WaitGroup
	n := 0
	for _, ld := range load.clients {
		n += len(ld.steps[s])
	}
	start := time.Now().Add(time.Millisecond)
	stepEnd := start.Add(time.Duration(float64(n) / rate * float64(time.Second)))
	var lastDone time.Time
	for c, ld := range load.clients {
		wg.Add(1)
		go func(c int, ld *clientLoad) {
			defer wg.Done()
			var lat, lags, transit []float64
			var ids []string
			failed := 0
			var last time.Time
			for j, op := range ld.steps[s] {
				k := j*qosdClients + c
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				if time.Now().Before(due) {
					sleepUntil(due)
					lags = append(lags, float64(time.Since(due).Nanoseconds())/1e3)
				}
				id := fmt.Sprintf("s%d-%d", s, k)
				sent := time.Now()
				code, resp, err := cl.post(d.url+"/v1/join", ld.stepBodies[s][j], id)
				last = time.Now()
				var dec qosd.Decision
				if err == nil && code == http.StatusOK {
					err = json.Unmarshal(resp, &dec)
				}
				if err != nil || code != http.StatusOK || dec.Flow != op.flow {
					failed++
					lat = append(lat, math.Inf(1))
					continue
				}
				hashes[c].add('J', op.flow, dec.Admitted, dec.Link, dec.Reason)
				lat = append(lat, float64(last.Sub(due).Nanoseconds())/1e3)
				transit = append(transit, float64(last.Sub(sent).Nanoseconds())/1e3)
				ids = append(ids, id)
			}
			mu.Lock()
			res.latency = append(res.latency, lat...)
			res.lags = append(res.lags, lags...)
			res.transit = append(res.transit, transit...)
			res.ids = append(res.ids, ids...)
			res.failed += failed
			if last.After(lastDone) {
				lastDone = last
			}
			mu.Unlock()
		}(c, ld)
	}
	wg.Wait()
	res.backlog = lastDone.Sub(stepEnd) > qosdSLO
	res.meetsSLO = quantile(res.latency, 0.99) <= float64(qosdSLO.Microseconds()) && !res.backlog
	return res
}

// ladderSteps sizes the ladder steps so they share the open-loop part
// of the timed phase evenly.
func ladderSteps(seconds float64) []int {
	per := seconds * (1 - qosdBatchShare) / float64(len(qosdLadder))
	steps := make([]int, len(qosdLadder))
	for i, r := range qosdLadder {
		steps[i] = max(int(r*per), qosdClients)
	}
	return steps
}

// qosdRig is a running daemon with its generated load and client.
type qosdRig struct {
	topo *topology.Topology
	d    *daemon
	load *churnLoad
	cl   *client
}

func setupQosd(c *runCtx, wrap func(http.Handler) http.Handler) (*qosdRig, error) {
	spec := fmt.Sprintf(qosdSpec, c.seed)
	var times []float64
	var q qosdRig
	for i := 0; i < qosdSetupReps; i++ {
		if q.d != nil {
			if err := q.d.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		t, err := topology.Generate(spec)
		if err != nil {
			return nil, err
		}
		d, err := startDaemon(t, wrap)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		q.topo, q.d = t, d
	}
	c.set("setup_s", median(times))
	var err error
	if q.load, err = genChurn(q.topo, c.seed, qosdLadder, ladderSteps(c.seconds)); err != nil {
		q.d.stop()
		return nil, err
	}
	q.cl = newClient()
	return &q, nil
}

func (q *qosdRig) close(c *runCtx) {
	q.cl.tr.CloseIdleConnections()
	c.check(q.d.stop() == nil, "daemon shut down cleanly")
}

// runLadder runs every ladder step and checks the open-loop decisions
// against the planning server's.
func (q *qosdRig) runLadder(c *runCtx) []stepResult {
	hashes := make([]*decisionHash, qosdClients)
	for i := range hashes {
		hashes[i] = newDecisionHash()
	}
	var steps []stepResult
	for s := range q.load.rates {
		r := runStep(q.cl, q.d, q.load, s, hashes)
		c.attempt(int64(len(r.latency)), int64(r.failed))
		steps = append(steps, r)
	}
	sums := make([]uint64, len(hashes))
	for i, h := range hashes {
		sums[i] = h.sum()
	}
	c.check(combine(sums) == q.load.openSum(), "open-loop decision checksum %016x, direct %016x", combine(sums), q.load.openSum())
	rateAtSLO := 0.0
	for _, r := range steps {
		fmt.Fprintf(c.out, "qosd-churn step rate=%g/s requests=%d p50_us=%.1f p99_us=%.1f backlog=%t meets_slo=%t transit_p50=%.1f transit_p99=%.1f lag_p50=%.1f lag_p99=%.1f\n",
			r.rate, len(r.latency), quantile(r.latency, 0.5), quantile(r.latency, 0.99), r.backlog, r.meetsSLO, quantile(r.transit, 0.5), quantile(r.transit, 0.99), quantile(r.lags, 0.5), quantile(r.lags, 0.99))
		if r.meetsSLO {
			rateAtSLO = max(rateAtSLO, r.rate)
		}
		if r.rate == qosdRefRate {
			c.set("join_p50_us", quantile(r.latency, 0.5))
			c.set("join_p99_us", quantile(r.latency, 0.99))
			c.set("join_samples", float64(len(r.latency)))
		}
	}
	c.set("rate_at_slo", rateAtSLO)
	var lags []float64
	for _, r := range steps {
		lags = append(lags, r.lags...)
	}
	c.set("loadgen.lag_p99_us", quantile(lags, 0.99))
	return steps
}

// checkPass counts a pass's operations and checks its checksum.
func checkPass(c *runCtx, q *qosdRig, r passResult) {
	c.attempt(int64(r.ops+1), int64(r.failed))
	c.check(r.sum == q.load.passSum(), "pass decision checksum %016x, direct %016x", r.sum, q.load.passSum())
}

func runQosdChurn(c *runCtx) error {
	if c.trace {
		return traceQosdChurn(c)
	}
	q, err := setupQosd(c, nil)
	if err != nil {
		return err
	}
	defer q.close(c)
	if err := checkDirect(c, q); err != nil {
		return err
	}

	var requests []float64
	var tp throughput
	hp := startHeapPeak()
	start := time.Now()
	for tp.iters() == 0 || time.Since(start).Seconds() < c.seconds*qosdBatchShare {
		c0 := cpuTime()
		r, err := runPass(q.cl, q.d, q.load)
		cpu := cpuTime() - c0
		if err != nil {
			hp.stop()
			return err
		}
		hp.mark()
		checkPass(c, q, r)
		requests = append(requests, r.requests...)
		tp.add(float64(r.ops), cpu)
	}
	c.set("heap_live_peak_mb", hp.stop())
	tp.report(c)
	c.set("qosd.admit_frac", q.load.admitFrac())
	c.check(q.load.admitFrac() > 0.1 && q.load.admitFrac() < 0.9, "admitted share %g of joins is not substantial both ways", q.load.admitFrac())
	p50 := quantile(requests, 0.5)
	fmt.Fprintf(c.out, "qosd-churn passes=%d ops_per_pass=%d admit_frac=%.4f batch_request_p50_ms=%.3f per_decision_us=%.3f (request latency / %d ops)\n",
		tp.iters(), q.load.passOps(), q.load.admitFrac(), 1e3*p50, 1e6*p50/qosdBatch, qosdBatch)
	q.runLadder(c)
	return nil
}

// checkDirect applies one pass to a fresh in-process server, bypassing
// HTTP, and checks it reproduces the planned decisions.
func checkDirect(c *runCtx, q *qosdRig) error {
	srv, err := qosd.New(q.topo, nil)
	if err != nil {
		return err
	}
	sums := make([]uint64, len(q.load.clients))
	for i, ld := range q.load.clients {
		h := newDecisionHash()
		if err := applyDirect(srv, ld.pass, h); err != nil {
			return err
		}
		sums[i] = h.sum()
	}
	c.check(combine(sums) == q.load.passSum(), "direct pass checksum %016x, planned %016x", combine(sums), q.load.passSum())
	return nil
}

// handlerTimes records the traced daemon's handler time per request id.
type handlerTimes struct {
	mu sync.Mutex
	us map[string]float64
}

func (h *handlerTimes) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		d := float64(time.Since(t0).Nanoseconds()) / 1e3
		if id := r.Header.Get(reqHeader); id != "" {
			h.mu.Lock()
			h.us[id] = d
			h.mu.Unlock()
		}
	})
}

// Layers of the qosd twin's recorder.
const (
	lReq = iota
	lDecode
	lAdmitOp
	lEncode
	lParse
	lRoute
)

func traceQosdChurn(c *runCtx) error {
	ht := &handlerTimes{us: map[string]float64{}}
	q, err := setupQosd(c, ht.wrap)
	if err != nil {
		return err
	}
	defer q.close(c)

	// One untraced pass for the runtime counters, one with request ids
	// for the tracing overhead.
	rt0 := readRT()
	plain, err := runPass(q.cl, q.d, q.load)
	if err != nil {
		return err
	}
	gc := readRT().since(rt0)
	checkPass(c, q, plain)
	traced, err := runPass(q.cl, q.d, q.load)
	if err != nil {
		return err
	}
	checkPass(c, q, traced)
	c.set("gc.allocs_per_op", ratio(gc.allocs, float64(plain.ops)))
	c.set("gc.cpu_frac", ratio(gc.gcCPU, gc.totalCPU))
	c.set("qosd.admit_frac", q.load.admitFrac())

	steps := q.runLadder(c)
	var handler, transport []float64
	ht.mu.Lock()
	for _, s := range steps {
		for i, id := range s.ids {
			if h, ok := ht.us[id]; ok {
				handler = append(handler, h)
				transport = append(transport, s.transit[i]-h)
			}
		}
	}
	ht.mu.Unlock()
	c.set("qosd.handler_us", median(handler))
	c.set("http.transport_us", median(transport))

	rec := NewRecorder([]string{"qosd.request", "qosd.decode", "qosd.admit", "qosd.encode", "packet.flowspec_parse", "core.admit_route"}, 1)
	t0 := time.Now()
	if err := traceTwins(c, q, rec); err != nil {
		return err
	}
	twinWall := time.Since(t0)
	rec.verify(c, "qosd-churn trace")
	c.set("trace.overhead_frac", traced.wall.Seconds()/plain.wall.Seconds()-1)
	c.set("trace.residual_frac", rec.Residual(twinWall))
	return writeSpans(c, map[string]*Recorder{"qosd": rec})
}

// traceTwins replays one pass through the server's layers called
// directly: the strict decode of each batch body, Server.Join/Leave/
// Reroute on a fresh server, and the encode of the response; then the
// FlowSpec parser on every join's spec and ShardedAdmitter.AdmitRoute
// on a twin admitter over the same links.
func traceTwins(c *runCtx, q *qosdRig, rec *Recorder) error {
	srv, err := qosd.New(q.topo, nil)
	if err != nil {
		return err
	}
	sums := make([]uint64, len(q.load.clients))
	var ops int
	for i, ld := range q.load.clients {
		h := newDecisionHash()
		for b, body := range ld.passBodies {
			rec.Begin(lReq, uint64(i)<<32|uint64(b+1))
			rec.Begin(lDecode, 0)
			var req qosd.BatchRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			err := dec.Decode(&req)
			rec.End()
			if err != nil {
				rec.End()
				return err
			}
			resp := qosd.BatchResponse{Decisions: make([]qosd.BatchResult, 0, len(req.Ops))}
			for _, op := range req.Ops {
				rec.Begin(lAdmitOp, 0)
				var d qosd.Decision
				var err error
				switch op.Op {
				case "join":
					d, err = srv.Join(op.Flow, op.Links, *op.Spec)
				case "leave":
					err = srv.Leave(op.Flow)
					d = qosd.Decision{Flow: op.Flow, Admitted: err == nil}
				default:
					d, err = srv.Reroute(op.Flow, op.Links)
				}
				rec.End()
				if err != nil {
					rec.End()
					return err
				}
				h.add(op.Op[0]-'a'+'A', op.Flow, d.Admitted, d.Link, d.Reason)
				resp.Decisions = append(resp.Decisions, qosd.BatchResult{Decision: d})
			}
			ops += len(req.Ops)
			rec.Begin(lEncode, 0)
			err = json.NewEncoder(io.Discard).Encode(resp)
			rec.End()
			rec.End()
			if err != nil {
				return err
			}
		}
		sums[i] = h.sum()
	}
	c.check(combine(sums) == q.load.passSum(), "twin pass checksum %016x, planned %016x", combine(sums), q.load.passSum())
	c.set("qosd.decode_ns_per_op", ratio(float64(rec.layers[lDecode].total), float64(ops)))
	c.set("qosd.admit_ns_per_op", rec.TotalNs(lAdmitOp))
	c.set("qosd.encode_ns_per_op", ratio(float64(rec.layers[lEncode].total), float64(ops)))

	// The FlowSpec parser on every join's wire spec, timed per batch.
	var parsed int
	for _, ld := range q.load.clients {
		for b := 0; b < len(ld.pass); b += qosdBatch {
			var raw [][]byte
			for _, op := range ld.pass[b:min(b+qosdBatch, len(ld.pass))] {
				if op.kind == 'J' {
					bs, err := json.Marshal(op.spec)
					if err != nil {
						return err
					}
					raw = append(raw, bs)
				}
			}
			rec.Begin(lParse, 0)
			for _, bs := range raw {
				var spec packet.FlowSpec
				if err := spec.UnmarshalJSON(bs); err != nil {
					rec.End()
					return err
				}
			}
			rec.End()
			parsed += len(raw)
		}
	}
	c.set("packet.flowspec_parse_ns", ratio(float64(rec.layers[lParse].total), float64(parsed)))
	return traceAdmitter(c, q, rec)
}

// traceAdmitter replays one pass on a ShardedAdmitter built over the
// topology's links, timing AdmitRoute, and checks its decisions match
// the server's.
func traceAdmitter(c *runCtx, q *qosdRig, rec *Recorder) error {
	names := linkNames(q.topo)
	index := make(map[string]int, len(names))
	cfgs := make([]core.LinkConfig, len(names))
	for i := range q.topo.Links {
		l := &q.topo.Links[i]
		index[names[i]] = i
		disc := core.DisciplineFIFO
		if l.Spec != "" {
			sc, err := scheme.Parse(l.Spec)
			if err != nil {
				return err
			}
			if sc.SchedulerName() == "wfq" {
				disc = core.DisciplineWFQ
			}
		}
		cfgs[i] = core.LinkConfig{Discipline: disc, Rate: l.Rate, Buffer: l.Buffer}
	}
	adm := core.NewShardedAdmitter(cfgs)
	type flow struct {
		route []int
		spec  packet.FlowSpec
	}
	var admitted, joins int
	for _, ld := range q.load.clients {
		active := map[string]flow{}
		for _, op := range ld.pass {
			route := make([]int, len(op.links))
			for i, l := range op.links {
				route[i] = index[l]
			}
			switch op.kind {
			case 'J':
				rec.Begin(lRoute, 0)
				_, reason := adm.AdmitRoute(route, op.spec)
				rec.End()
				joins++
				if reason == core.Accepted {
					admitted++
					active[op.flow] = flow{route, op.spec}
				}
			case 'L':
				f := active[op.flow]
				adm.ReleaseRoute(f.route, f.spec)
				delete(active, op.flow)
			default:
				f := active[op.flow]
				if _, reason := adm.Reroute(f.route, route, f.spec); reason == core.Accepted {
					active[op.flow] = flow{route, f.spec}
				}
			}
		}
	}
	c.check(ratio(float64(admitted), float64(joins)) == q.load.admitFrac(), "twin admitter admitted %d of %d joins, server share %g", admitted, joins, q.load.admitFrac())
	c.set("core.admit_route_ns", rec.TotalNs(lRoute))
	return nil
}
