package main

import (
	"bufqos/internal/buffer"
	"bufqos/internal/packet"
	"bufqos/internal/sched"
	"bufqos/internal/source"
	"bufqos/internal/units"
)

// Layers of the simulator twins' recorder.
const (
	lStep = iota
	lSink
	lLink
	lAdmit
	lRelease
	lEnqueue
	lDequeue
	lDelivery
	lAck
	lDrop
)

var simLayers = []string{
	"sim.step", "source.sink", "sched.link_receive", "buffer.admit", "buffer.release",
	"sched.enqueue", "sched.dequeue", "network.delivery", "source.tcp_ack", "source.tcp_drop",
}

// spanSample keeps one span tree in this many roots.
const spanSample = 4096

// pktID is the span id shared by every call made for one packet.
func pktID(p *packet.Packet) uint64 { return uint64(p.Flow+1)<<40 | p.Seq&(1<<40-1) }

// tracedSink times a source.Sink's Receive as one layer.
type tracedSink struct {
	inner source.Sink
	rec   *Recorder
	layer int
}

func (t tracedSink) Receive(p *packet.Packet) {
	t.rec.Begin(t.layer, pktID(p))
	t.inner.Receive(p)
	t.rec.End()
}

// countingSink counts the packets passing into inner.
type countingSink struct {
	inner source.Sink
	n     *int64
}

func (c countingSink) Receive(p *packet.Packet) {
	*c.n++
	c.inner.Receive(p)
}

// tracedManager times a buffer.Manager's Admit and Release and counts
// rejected admissions.
type tracedManager struct {
	buffer.Manager
	rec   *Recorder
	drops int64
}

func (m *tracedManager) Admit(flow int, size units.Bytes) bool {
	m.rec.Begin(lAdmit, 0)
	ok := m.Manager.Admit(flow, size)
	m.rec.End()
	if !ok {
		m.drops++
	}
	return ok
}

func (m *tracedManager) Release(flow int, size units.Bytes) {
	m.rec.Begin(lRelease, 0)
	m.Manager.Release(flow, size)
	m.rec.End()
}

// tracedScheduler times a sched.Scheduler's Enqueue and Dequeue.
type tracedScheduler struct {
	sched.Scheduler
	rec *Recorder
}

func (t tracedScheduler) Enqueue(p *packet.Packet) {
	t.rec.Begin(lEnqueue, pktID(p))
	t.Scheduler.Enqueue(p)
	t.rec.End()
}

func (t tracedScheduler) Dequeue() *packet.Packet {
	t.rec.Begin(lDequeue, 0)
	p := t.Scheduler.Dequeue()
	t.rec.End()
	return p
}
