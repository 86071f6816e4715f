package buffer

import (
	"fmt"

	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// The policies of this file and classqueue.go decide admission from
// which packets are queued, and the preemptive ones remove packets
// already queued, which no Manager/Scheduler split can express. So
// each implements Manager and the sched.Scheduler method set (Enqueue,
// Dequeue, Len, Backlog) and is wired into a Link as both at once.

// pushoutLedger is the accounting of a policy that evicts queued
// packets: a pushed-out victim leaves through the ledger and counts as
// a drop of its own flow.
type pushoutLedger struct {
	accounting
	onPushout func(p *packet.Packet)
}

// SetOnPushout registers fn to be called for every pushed-out packet
// (sched.PushoutNotifier); the Link uses it to count victims in its
// statistics and drop hook.
func (l *pushoutLedger) SetOnPushout(fn func(p *packet.Packet)) { l.onPushout = fn }

// Release implements Manager.
func (l *pushoutLedger) Release(flow int, size units.Bytes) { l.remove(flow, size) }

// pushOut takes an evicted packet off the ledger as a drop of its flow.
func (l *pushoutLedger) pushOut(p *packet.Packet) {
	l.remove(p.Flow, p.Size)
	l.dropped(p.Flow, p.Size)
	if l.onPushout != nil {
		l.onPushout(p)
	}
}

// holeFIFO is a FIFO queue from which any queued packet can be pushed
// out: the victim's slot becomes a nil hole that Dequeue skips. The
// packet in service has already been dequeued and cannot be evicted.
type holeFIFO struct {
	q       []*packet.Packet
	head    int
	n       int // queued packets, excluding holes
	backlog units.Bytes
}

// Enqueue implements sched.Scheduler.
func (f *holeFIFO) Enqueue(p *packet.Packet) {
	f.q = append(f.q, p)
	f.n++
	f.backlog += p.Size
}

// Dequeue implements sched.Scheduler, skipping holes.
func (f *holeFIFO) Dequeue() *packet.Packet {
	for f.head < len(f.q) {
		p := f.q[f.head]
		f.q[f.head] = nil
		f.head++
		// Compact once the dead prefix dominates, keeping amortized O(1).
		if f.head > 64 && f.head*2 >= len(f.q) {
			n := copy(f.q, f.q[f.head:])
			f.q = f.q[:n]
			f.head = 0
		}
		if p != nil {
			f.n--
			f.backlog -= p.Size
			return p
		}
	}
	return nil
}

// Len implements sched.Scheduler (queued packets, excluding holes).
func (f *holeFIFO) Len() int { return f.n }

// Backlog implements sched.Scheduler. It excludes the packet in
// service, which the ledger still holds until the Link releases it.
func (f *holeFIFO) Backlog() units.Bytes { return f.backlog }

// take punches a hole at queue index i and returns the packet it held.
func (f *holeFIFO) take(i int) *packet.Packet {
	p := f.q[i]
	f.q[i] = nil
	f.n--
	f.backlog -= p.Size
	return p
}

// PushoutFIFO implements the protective pushout policy of the paper's
// reference [2] (Cidon, Guérin, Khamisy, "Protective buffer management
// policies"): a FIFO queue where an arriving packet of a flow below its
// fair share may, when the buffer is full, push out the most recent
// packet of the flow most in excess of its own share.
//
// Compared to the paper's threshold scheme it achieves tail-drop-level
// utilization with flow protection, at the cost of O(queue length)
// worst-case removal work — exactly the kind of per-packet cost §1
// argues against at high speed.
type PushoutFIFO struct {
	pushoutLedger
	holeFIFO
	shares []units.Bytes
}

// NewPushoutFIFO builds the combined queue/policy. shares[i] is flow
// i's guaranteed buffer share; Σshares should not exceed capacity for
// the protection property to hold.
func NewPushoutFIFO(capacity units.Bytes, shares []units.Bytes) *PushoutFIFO {
	if capacity <= 0 {
		panic(fmt.Sprintf("buffer: pushout needs a positive capacity, got %v", capacity))
	}
	for i, s := range shares {
		if s < 0 {
			panic(fmt.Sprintf("buffer: negative share %v for flow %d", s, i))
		}
	}
	return &PushoutFIFO{
		pushoutLedger: pushoutLedger{accounting: newAccounting(capacity, len(shares))},
		shares:        append([]units.Bytes(nil), shares...),
	}
}

// Admit implements Manager. When the packet does not fit, a flow within
// its share pushes out the newest packet of the most over-share flow
// (repeatedly, until the arrival fits or no eligible victim remains).
// Victims already pushed out stay out even if the arrival is finally
// refused.
func (po *PushoutFIFO) Admit(flow int, size units.Bytes) bool {
	for po.total+size > po.capacity {
		victim := -1
		if po.occ[flow]+size <= po.shares[flow] {
			victim = po.mostOverShare(flow)
		}
		if victim < 0 || !po.pushOutNewest(victim) {
			po.dropped(flow, size)
			return false
		}
	}
	po.add(flow, size)
	return true
}

// mostOverShare returns the flow with the largest occupancy excess over
// its share (excluding the arriving flow), or -1 when nobody is over.
func (po *PushoutFIFO) mostOverShare(except int) int {
	best := -1
	var bestExcess units.Bytes
	for i := range po.occ {
		if i == except {
			continue
		}
		excess := po.occ[i] - po.shares[i]
		if excess > 0 && (best < 0 || excess > bestExcess) {
			best = i
			bestExcess = excess
		}
	}
	return best
}

// pushOutNewest evicts the flow's most recent queued packet. It fails
// when the flow's only packet is in service.
func (po *PushoutFIFO) pushOutNewest(flow int) bool {
	for i := len(po.q) - 1; i >= po.head; i-- {
		if p := po.q[i]; p != nil && p.Flow == flow {
			po.pushOut(po.take(i))
			return true
		}
	}
	return false
}

// ClassGreedy is the preemptive greedy policy of the shared-buffer
// value model (arXiv:1103.6049): FIFO service, and an arrival that
// does not fit pushes out the newest queued packet of the lowest class
// strictly below its own (repeatedly, until it fits or no victim
// remains). Class is a flow property, higher = more valuable.
type ClassGreedy struct {
	pushoutLedger
	holeFIFO
	classOf []int
}

// NewClassGreedy builds the combined queue/policy. classOf[i] is flow
// i's class within [0, classes).
func NewClassGreedy(capacity units.Bytes, classOf []int, classes int) *ClassGreedy {
	return &ClassGreedy{
		pushoutLedger: pushoutLedger{accounting: classLedger(capacity, classOf, classes)},
		classOf:       append([]int(nil), classOf...),
	}
}

// Admit implements Manager. As with PushoutFIFO, victims already pushed
// out stay out even if the arrival is finally refused.
func (g *ClassGreedy) Admit(flow int, size units.Bytes) bool {
	for g.total+size > g.capacity {
		if !g.pushOutLowest(g.classOf[flow]) {
			g.dropped(flow, size)
			return false
		}
	}
	g.add(flow, size)
	return true
}

// pushOutLowest evicts the newest queued packet of the lowest class
// strictly below the given class.
func (g *ClassGreedy) pushOutLowest(below int) bool {
	victim, victimClass := -1, below
	for i := len(g.q) - 1; i >= g.head; i-- {
		p := g.q[i]
		if p == nil {
			continue
		}
		// Scanning from the tail, the first packet seen of any class is
		// that class's newest, so only a strictly lower class updates the
		// choice.
		if c := g.classOf[p.Flow]; c < victimClass {
			victim, victimClass = i, c
		}
	}
	if victim < 0 {
		return false
	}
	g.pushOut(g.take(victim))
	return true
}

// classLedger validates a flow→class map against the class count and
// returns the ledger of a class policy over the given buffer.
func classLedger(capacity units.Bytes, classOf []int, classes int) accounting {
	if capacity <= 0 {
		panic(fmt.Sprintf("buffer: class policy needs a positive capacity, got %v", capacity))
	}
	for i, c := range classOf {
		if c < 0 || c >= classes {
			panic(fmt.Sprintf("buffer: flow %d class %d outside [0,%d)", i, c, classes))
		}
	}
	return newAccounting(capacity, len(classOf))
}
