package buffer

import (
	"bufqos/internal/packet"
	"bufqos/internal/units"
)

// classQueues is one FIFO queue per service class; a packet queues
// under its flow's class.
type classQueues struct {
	classOf []int
	qs      [][]classSlot
	queued  []units.Bytes // queued bytes per class (excludes in service)
	seq     uint64
	n       int
	backlog units.Bytes
}

// classSlot is a queued packet with its arrival order across classes.
type classSlot struct {
	p   *packet.Packet
	seq uint64
}

func newClassQueues(classOf []int, classes int) classQueues {
	return classQueues{
		classOf: append([]int(nil), classOf...),
		qs:      make([][]classSlot, classes),
		queued:  make([]units.Bytes, classes),
	}
}

// Enqueue implements sched.Scheduler.
func (q *classQueues) Enqueue(p *packet.Packet) {
	c := q.classOf[p.Flow]
	q.qs[c] = append(q.qs[c], classSlot{p, q.seq})
	q.seq++
	q.queued[c] += p.Size
	q.n++
	q.backlog += p.Size
}

// Len implements sched.Scheduler.
func (q *classQueues) Len() int { return q.n }

// Backlog implements sched.Scheduler.
func (q *classQueues) Backlog() units.Bytes { return q.backlog }

// popHead removes and returns class c's oldest packet.
func (q *classQueues) popHead(c int) *packet.Packet {
	p := q.qs[c][0].p
	q.qs[c] = q.qs[c][1:]
	q.taken(c, p)
	return p
}

// popTail removes and returns class c's newest packet.
func (q *classQueues) popTail(c int) *packet.Packet {
	last := len(q.qs[c]) - 1
	p := q.qs[c][last].p
	q.qs[c] = q.qs[c][:last]
	q.taken(c, p)
	return p
}

func (q *classQueues) taken(c int, p *packet.Packet) {
	q.queued[c] -= p.Size
	q.n--
	q.backlog -= p.Size
}

// ClassSeg is the class-segregation policy of arXiv:1103.6049 over a
// shared buffer: one FIFO queue per class, strict-priority service
// (highest class first), and an overflowing arrival pushes out the
// newest packet of the lowest nonempty class strictly below its own.
type ClassSeg struct {
	pushoutLedger
	classQueues
}

// NewClassSeg builds the combined queue/policy with one queue per
// class. classOf[i] is flow i's class within [0, classes).
func NewClassSeg(capacity units.Bytes, classOf []int, classes int) *ClassSeg {
	return &ClassSeg{
		pushoutLedger: pushoutLedger{accounting: classLedger(capacity, classOf, classes)},
		classQueues:   newClassQueues(classOf, classes),
	}
}

// Admit implements Manager.
func (cs *ClassSeg) Admit(flow int, size units.Bytes) bool {
	for cs.total+size > cs.capacity {
		if !cs.pushOutLowest(cs.classOf[flow]) {
			cs.dropped(flow, size)
			return false
		}
	}
	cs.add(flow, size)
	return true
}

// pushOutLowest evicts the newest queued packet of the lowest nonempty
// class strictly below the given class.
func (cs *ClassSeg) pushOutLowest(below int) bool {
	for c := 0; c < below; c++ {
		if len(cs.qs[c]) > 0 {
			cs.pushOut(cs.popTail(c))
			return true
		}
	}
	return false
}

// Dequeue implements sched.Scheduler: strict priority, FIFO within a
// class.
func (cs *ClassSeg) Dequeue() *packet.Packet {
	for c := len(cs.qs) - 1; c >= 0; c-- {
		if len(cs.qs[c]) > 0 {
			return cs.popHead(c)
		}
	}
	return nil
}

// MultiQueue is the multi-queue switch model of arXiv:1007.1535 over a
// partitioned buffer: one FIFO queue per class with its own byte
// quota (capacity/classes), non-preemptive admission, and a service
// rule choosing the queue to drain — longest-queue-first, or the
// semi-greedy refinement (fullest queue above half quota, otherwise
// the oldest head-of-line packet).
type MultiQueue struct {
	accounting
	classQueues
	quota units.Bytes
	semi  bool
}

// NewMultiQueue builds the combined queue/policy. classOf[i] is flow
// i's class within [0, classes); semi selects the semi-greedy service
// rule instead of plain longest-queue-first.
func NewMultiQueue(capacity units.Bytes, classOf []int, classes int, semi bool) *MultiQueue {
	return &MultiQueue{
		accounting:  classLedger(capacity, classOf, classes),
		classQueues: newClassQueues(classOf, classes),
		quota:       capacity / units.Bytes(classes),
		semi:        semi,
	}
}

// Quota returns the per-class byte quota.
func (m *MultiQueue) Quota() units.Bytes { return m.quota }

// Admit implements Manager: the packet must fit in its class queue's
// quota (counting queued bytes; the packet in service has already freed
// its slot, as in the abstract model where transmission and arrivals
// share a step).
func (m *MultiQueue) Admit(flow int, size units.Bytes) bool {
	if m.queued[m.classOf[flow]]+size > m.quota {
		m.dropped(flow, size)
		return false
	}
	m.add(flow, size)
	return true
}

// Release implements Manager.
func (m *MultiQueue) Release(flow int, size units.Bytes) { m.remove(flow, size) }

// Dequeue implements sched.Scheduler.
func (m *MultiQueue) Dequeue() *packet.Packet {
	if m.n == 0 {
		return nil
	}
	pick := -1
	if m.semi {
		for c := range m.qs {
			if 2*m.queued[c] > m.quota && (pick < 0 || m.queued[c] > m.queued[pick]) {
				pick = c
			}
		}
		if pick < 0 {
			for c := range m.qs {
				if len(m.qs[c]) > 0 && (pick < 0 || m.qs[c][0].seq < m.qs[pick][0].seq) {
					pick = c
				}
			}
		}
	} else {
		for c := range m.qs {
			if len(m.qs[c]) > 0 && (pick < 0 || m.queued[c] > m.queued[pick]) {
				pick = c
			}
		}
	}
	return m.popHead(pick)
}
