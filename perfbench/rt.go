package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// rtCounters is a reading of the Go runtime counters the benchmark
// reports from outside the program.
type rtCounters struct {
	allocs     uint64
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRT() rtCounters {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtCounters{
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// rtDelta is the runtime activity between two readings.
type rtDelta struct {
	allocs, allocBytes float64
	gcCPU, totalCPU    float64
}

func (a rtCounters) since(b rtCounters) rtDelta {
	return rtDelta{
		allocs:     float64(a.allocs - b.allocs),
		allocBytes: float64(a.allocBytes - b.allocBytes),
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
	}
}

func (d *rtDelta) add(o rtDelta) {
	d.allocs += o.allocs
	d.allocBytes += o.allocBytes
	d.gcCPU += o.gcCPU
	d.totalCPU += o.totalCPU
}

// heapPeak samples the live heap (as marked by the last GC) on its own
// goroutine, keeping the peak of each timed iteration.
type heapPeak struct {
	done  chan struct{}
	wg    sync.WaitGroup
	mu    sync.Mutex
	cur   uint64
	peaks []float64
}

const heapLiveMetric = "/gc/heap/live:bytes"

func readHeapLive() uint64 {
	s := []metrics.Sample{{Name: heapLiveMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{done: make(chan struct{}), cur: readHeapLive()}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-t.C:
				v := readHeapLive()
				h.mu.Lock()
				h.cur = max(h.cur, v)
				h.mu.Unlock()
			}
		}
	}()
	return h
}

// mark ends a timed iteration, recording its peak in MB (10⁶ bytes).
func (h *heapPeak) mark() {
	v := readHeapLive()
	h.mu.Lock()
	h.peaks = append(h.peaks, float64(max(h.cur, v))/1e6)
	h.cur = v
	h.mu.Unlock()
}

// stop ends sampling and returns the median of the iterations' peaks.
func (h *heapPeak) stop() float64 {
	close(h.done)
	h.wg.Wait()
	return median(h.peaks)
}

// median returns the middle value of xs (mean of the two middle ones
// for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// setupTime runs fn samples×reps times and returns the median over the
// samples of the mean time per call, in seconds, stopping at the first
// error. Set-ups too short to time one by one get reps > 1.
func setupTime(samples, reps int, fn func() error) (float64, error) {
	ds := make([]float64, 0, samples)
	for i := 0; i < samples; i++ {
		start := time.Now()
		for r := 0; r < reps; r++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		ds = append(ds, time.Since(start).Seconds()/float64(reps))
	}
	return median(ds), nil
}
