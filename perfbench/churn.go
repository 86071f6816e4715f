package main

import (
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math/rand"
	"strconv"

	"bufqos/internal/packet"
	"bufqos/internal/qosd"
	"bufqos/internal/sim"
	"bufqos/internal/topology"
	"bufqos/internal/units"
)

// The qosd-churn op stream. Each client owns every qosdClients-th link,
// so the clients' decisions never interact and the checksum does not
// depend on how their requests interleave.
const (
	qosdClients = 2
	qosdBatch   = 1024
	// qosdPassBatches is the number of 1024-op batches one client sends
	// in one pass of the closed-loop phase.
	qosdPassBatches = 32
	qosdJoinFrac    = 0.55
	qosdLeaveFrac   = 0.30 // the rest are reroutes
	// qosdMaxActive caps a client's joined flows; at the cap a join
	// turns into a leave. It keeps the links near their admission
	// limit, so both admissions and rejections stay common.
	qosdMaxActive = 1 << 30
)

// qosdTemplates are the flow profiles joins draw from: σ from 20 to
// 160 KB, ρ from 250 kb/s to 2 Mb/s, peak 4ρ.
func qosdTemplates() []packet.FlowSpec {
	var out []packet.FlowSpec
	for _, kb := range []float64{20, 40, 80, 160} {
		for _, r := range []units.Rate{250e3, 500e3, 1e6, 2e6} {
			out = append(out, packet.FlowSpec{PeakRate: 4 * r, TokenRate: r, BucketSize: units.KiloBytes(kb)})
		}
	}
	return out
}

// churnOp is one operation of a client's stream.
type churnOp struct {
	kind  byte // 'J' join, 'L' leave, 'R' reroute
	flow  string
	links []string
	spec  packet.FlowSpec
}

// clientLoad is one client's share of the stream: a closed-loop pass
// of batch operations and, per ladder step, single open-loop joins,
// each with its request bodies and its reference checksum.
type clientLoad struct {
	pass         []churnOp
	passBodies   [][]byte
	passSum      uint64
	steps        [][]churnOp
	stepBodies   [][][]byte
	openSum      uint64
	joins, admit int
}

// churnLoad is the whole generated load.
type churnLoad struct {
	clients []*clientLoad
	rates   []float64 // ladder rates, requests per second across clients
}

// decisionHash folds decisions, in order, into a checksum.
type decisionHash struct{ h hash.Hash64 }

func newDecisionHash() *decisionHash { return &decisionHash{h: fnv.New64a()} }

func (d *decisionHash) add(kind byte, flow string, admitted bool, link, reason string) {
	ok := byte('0')
	if admitted {
		ok = '1'
	}
	d.h.Write([]byte{kind, '|'})
	io.WriteString(d.h, flow)
	d.h.Write([]byte{'|', ok, '|'})
	io.WriteString(d.h, link)
	d.h.Write([]byte{'|'})
	io.WriteString(d.h, reason)
	d.h.Write([]byte{';'})
}

func (d *decisionHash) sum() uint64 { return d.h.Sum64() }

// combine folds per-client checksums into one, in client order.
func combine(sums []uint64) uint64 {
	h := fnv.New64a()
	for c, s := range sums {
		fmt.Fprintf(h, "%d:%016x;", c, s)
	}
	return h.Sum64()
}

// linkNames lists the topology's link names as qosd knows them.
func linkNames(t *topology.Topology) []string {
	names := make([]string, len(t.Links))
	for i, l := range t.Links {
		names[i] = l.Name
		if names[i] == "" {
			names[i] = l.From + "->" + l.To
		}
	}
	return names
}

// genChurn generates the seeded load for topology t. The stream is
// planned against a fresh in-process qosd.Server, so leaves and
// reroutes only name flows that are joined at that point; the planning
// server's decisions are the reference checksums the HTTP run must
// reproduce. steps gives the number of open-loop joins per ladder step.
func genChurn(t *topology.Topology, seed int64, rates []float64, steps []int) (*churnLoad, error) {
	plan, err := qosd.New(t, nil)
	if err != nil {
		return nil, err
	}
	names := linkNames(t)
	specs := qosdTemplates()
	load := &churnLoad{rates: rates}
	rngs := make([]*randSource, qosdClients)
	for c := 0; c < qosdClients; c++ {
		cl := &clientLoad{}
		load.clients = append(load.clients, cl)
		var owned []string
		for i := c; i < len(names); i += qosdClients {
			owned = append(owned, names[i])
		}
		rng := &randSource{r: sim.NewRand(sim.DeriveSeed(seed, 1<<20+c)), owned: owned}
		rngs[c] = rng
		h := newDecisionHash()
		var active []string
		for i := 0; i < qosdPassBatches*qosdBatch; i++ {
			p := rng.r.Float64()
			switch {
			case len(active) == 0 || p < qosdJoinFrac && len(active) < qosdMaxActive:
				op := churnOp{kind: 'J', flow: "c" + strconv.Itoa(c) + "-" + strconv.Itoa(i), links: rng.route(), spec: specs[rng.r.Intn(len(specs))]}
				d, err := plan.Join(op.flow, op.links, op.spec)
				if err != nil {
					return nil, fmt.Errorf("planning join %s: %w", op.flow, err)
				}
				h.add('J', op.flow, d.Admitted, d.Link, d.Reason)
				cl.joins++
				if d.Admitted {
					cl.admit++
					active = append(active, op.flow)
				}
				cl.pass = append(cl.pass, op)
			case p < qosdJoinFrac+qosdLeaveFrac:
				k := rng.r.Intn(len(active))
				op := churnOp{kind: 'L', flow: active[k]}
				active[k] = active[len(active)-1]
				active = active[:len(active)-1]
				if err := plan.Leave(op.flow); err != nil {
					return nil, fmt.Errorf("planning leave %s: %w", op.flow, err)
				}
				h.add('L', op.flow, true, "", "")
				cl.pass = append(cl.pass, op)
			default:
				op := churnOp{kind: 'R', flow: active[rng.r.Intn(len(active))], links: rng.route()}
				d, err := plan.Reroute(op.flow, op.links)
				if err != nil {
					return nil, fmt.Errorf("planning reroute %s: %w", op.flow, err)
				}
				h.add('R', op.flow, d.Admitted, d.Link, d.Reason)
				cl.pass = append(cl.pass, op)
			}
		}
		cl.passSum = h.sum()
		for b := 0; b < len(cl.pass); b += qosdBatch {
			body, err := batchBody(cl.pass[b:min(b+qosdBatch, len(cl.pass))])
			if err != nil {
				return nil, err
			}
			cl.passBodies = append(cl.passBodies, body)
		}
	}

	// The open-loop joins continue from the state one pass leaves
	// behind; request k of a step belongs to client k mod qosdClients.
	hs := make([]*decisionHash, qosdClients)
	for c := range hs {
		hs[c] = newDecisionHash()
		load.clients[c].steps = make([][]churnOp, len(steps))
		load.clients[c].stepBodies = make([][][]byte, len(steps))
	}
	for s, n := range steps {
		for k := 0; k < n; k++ {
			c := k % qosdClients
			cl, rng := load.clients[c], rngs[c]
			op := churnOp{kind: 'J', flow: fmt.Sprintf("c%d-s%d-%d", c, s, k), links: rng.route(), spec: specs[rng.r.Intn(len(specs))]}
			d, err := plan.Join(op.flow, op.links, op.spec)
			if err != nil {
				return nil, fmt.Errorf("planning join %s: %w", op.flow, err)
			}
			hs[c].add('J', op.flow, d.Admitted, d.Link, d.Reason)
			body, err := json.Marshal(qosd.JoinRequest{Flow: op.flow, Links: op.links, Spec: op.spec})
			if err != nil {
				return nil, err
			}
			cl.steps[s] = append(cl.steps[s], op)
			cl.stepBodies[s] = append(cl.stepBodies[s], body)
		}
	}
	for c, h := range hs {
		load.clients[c].openSum = h.sum()
	}
	return load, nil
}

// randSource draws routes of one to three distinct links from the
// client's own links.
type randSource struct {
	r     *rand.Rand
	owned []string
}

func (r *randSource) route() []string {
	n := 1 + r.r.Intn(min(3, len(r.owned)))
	route := make([]string, 0, n)
	for len(route) < n {
		l := r.owned[r.r.Intn(len(r.owned))]
		dup := false
		for _, p := range route {
			dup = dup || p == l
		}
		if !dup {
			route = append(route, l)
		}
	}
	return route
}

func batchBody(ops []churnOp) ([]byte, error) {
	req := qosd.BatchRequest{Ops: make([]qosd.BatchOp, len(ops))}
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case 'J':
			req.Ops[i] = qosd.BatchOp{Op: "join", Flow: op.flow, Links: op.links, Spec: &op.spec}
		case 'L':
			req.Ops[i] = qosd.BatchOp{Op: "leave", Flow: op.flow}
		default:
			req.Ops[i] = qosd.BatchOp{Op: "reroute", Flow: op.flow, Links: op.links}
		}
	}
	return json.Marshal(req)
}

// passSum is the reference checksum of one closed-loop pass.
func (l *churnLoad) passSum() uint64 {
	sums := make([]uint64, len(l.clients))
	for c, cl := range l.clients {
		sums[c] = cl.passSum
	}
	return combine(sums)
}

// openSum is the reference checksum of the open-loop phase.
func (l *churnLoad) openSum() uint64 {
	sums := make([]uint64, len(l.clients))
	for c, cl := range l.clients {
		sums[c] = cl.openSum
	}
	return combine(sums)
}

// admitFrac is the share of the pass's joins that were admitted.
func (l *churnLoad) admitFrac() float64 {
	var j, a int
	for _, cl := range l.clients {
		j += cl.joins
		a += cl.admit
	}
	return ratio(float64(a), float64(j))
}

// passOps counts the operations of one pass across clients.
func (l *churnLoad) passOps() int {
	n := 0
	for _, cl := range l.clients {
		n += len(cl.pass)
	}
	return n
}

// applyDirect applies one client's pass to srv in stream order and
// returns the checksum, for checking the HTTP run against a server
// that never saw a request.
func applyDirect(srv *qosd.Server, ops []churnOp, h *decisionHash) error {
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case 'J':
			d, err := srv.Join(op.flow, op.links, op.spec)
			if err != nil {
				return err
			}
			h.add('J', op.flow, d.Admitted, d.Link, d.Reason)
		case 'L':
			if err := srv.Leave(op.flow); err != nil {
				return err
			}
			h.add('L', op.flow, true, "", "")
		default:
			d, err := srv.Reroute(op.flow, op.links)
			if err != nil {
				return err
			}
			h.add('R', op.flow, d.Admitted, d.Link, d.Reason)
		}
	}
	return nil
}
