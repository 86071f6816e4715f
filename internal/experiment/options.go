package experiment

import (
	"io"
	"sync/atomic"
	"time"

	"bufqos/internal/metrics"
	"bufqos/internal/units"
)

// Options is the single configuration surface of the experiment
// package: it describes one simulation run (flows, scheme, buffer,
// duration, seed) and how sweeps over such runs execute (replications,
// swept axes, worker count) and are observed (metrics registry,
// progress callbacks, trace sampling).
//
// Build an Options with NewOptions and functional options:
//
//	o := experiment.NewOptions(
//		experiment.WithFlows(experiment.Table1Flows()),
//		experiment.WithSchemeSpec("fifo+threshold"),
//		experiment.WithBuffer(units.MegaBytes(1)),
//		experiment.WithWarmup(0), // explicit zero, no hack needed
//	)
//	res, err := experiment.Run(ctx, o)
//
// Fields may also be set directly on the struct; unset fields get the
// paper's defaults. The one thing struct literals cannot express is an
// intentional zero Warmup or Seed — use WithWarmup(0)/WithSeed(0) for
// that.
type Options struct {
	// --- One run's physics ---

	Flows []FlowConfig
	// SchemeSpec selects the resource-management scheme through the
	// scheme registry (e.g. "fifo+threshold", "wfq+sharing",
	// "hybrid:3+sharing", "fifo+red?min=0.2"); see internal/scheme for
	// the grammar and catalogue. It defaults to "fifo+none", FIFO with
	// a shared tail-drop buffer.
	SchemeSpec string
	LinkRate   units.Rate
	Buffer     units.Bytes
	// Headroom is H for the sharing schemes (the paper's default in
	// §3.3 is 2 MB; buffer sweeps default it, single runs default 0).
	Headroom units.Bytes
	// QueueOf maps flows to queues for the hybrid schemes.
	QueueOf []int
	// Duration is the simulated time; Warmup the discarded prefix
	// (default Duration/10; set an explicit zero with WithWarmup(0)).
	Duration float64
	Warmup   float64
	// Seed drives all randomness. Single runs use it directly; sweeps
	// seed replication r with Seed + r. Defaults to 1; set an explicit
	// zero with WithSeed(0).
	Seed int64
	// PacketSize defaults to DefaultPacketSize.
	PacketSize units.Bytes
	// TrackDelays enables per-flow queueing-delay measurement (slower;
	// off by default).
	TrackDelays bool

	// --- Sweep execution ---

	// Runs is the number of independent replications (paper: 5).
	Runs int
	// BufferSizes is the swept total buffer (Figures 1-6, 8-13).
	BufferSizes []units.Bytes
	// Headrooms is the swept headroom for Figure 7.
	Headrooms []units.Bytes
	// Fig7Buffer is the fixed total buffer of the Figure 7 headroom
	// sweep (paper: 1 MB).
	Fig7Buffer units.Bytes
	// Workers bounds how many simulation runs execute concurrently:
	// 0 means GOMAXPROCS, 1 forces sequential execution. Results are
	// identical for any worker count.
	Workers int

	// --- Observability ---

	// Metrics, when non-nil, receives counters/gauges/histograms from
	// every layer the run touches (sim kernel, buffer manager,
	// scheduler, worker pool). Nil disables collection at near-zero
	// cost. One registry may be shared across a whole sweep;
	// deterministic aggregates (counters, histogram buckets, gauge
	// high-waters) are identical for any worker count.
	Metrics *metrics.Registry
	// Progress, when non-nil, is called after every completed run of a
	// sweep with completion counts and an ETA. It may be called
	// concurrently from pool workers.
	Progress ProgressFunc
	// TraceInterval/TraceWriter enable the periodic snapshot hook: a
	// single Run (not sweeps) samples its metrics every TraceInterval
	// simulated seconds and writes the series as CSV to TraceWriter
	// when the run completes. Requires Metrics.
	TraceInterval float64
	TraceWriter   io.Writer

	// warmupSet / seedSet mark explicit zeros. Only WithWarmup/WithSeed
	// can set them.
	warmupSet bool
	seedSet   bool
}

// Option mutates an Options; see NewOptions.
type Option func(*Options)

// NewOptions returns an Options with all the given options applied.
// Defaults for untouched fields are applied by Run and the sweep
// drivers, so the returned value can still be adjusted directly.
func NewOptions(opts ...Option) *Options {
	o := &Options{}
	for _, opt := range opts {
		opt(o)
	}
	return o
}

// WithFlows sets the flow population of single runs.
func WithFlows(flows []FlowConfig) Option { return func(o *Options) { o.Flows = flows } }

// WithSchemeSpec selects the scheme through the registry, e.g.
// "fifo+threshold", "wfq+sharing", "hybrid:3+sharing",
// "fifo+dynthresh?alpha=2". Invalid specs surface as an error from Run.
func WithSchemeSpec(spec string) Option { return func(o *Options) { o.SchemeSpec = spec } }

// WithLinkRate overrides the 48 Mb/s default link.
func WithLinkRate(r units.Rate) Option { return func(o *Options) { o.LinkRate = r } }

// WithBuffer sets the total buffer of single runs.
func WithBuffer(b units.Bytes) Option { return func(o *Options) { o.Buffer = b } }

// WithHeadroom sets H for the sharing schemes.
func WithHeadroom(h units.Bytes) Option { return func(o *Options) { o.Headroom = h } }

// WithQueues assigns flows to hybrid queues.
func WithQueues(queueOf []int) Option { return func(o *Options) { o.QueueOf = queueOf } }

// WithDuration sets the simulated seconds per run.
func WithDuration(d float64) Option { return func(o *Options) { o.Duration = d } }

// WithWarmup sets the discarded warm-up prefix. An explicit zero is
// honored.
func WithWarmup(w float64) Option {
	return func(o *Options) { o.Warmup = w; o.warmupSet = true }
}

// WithSeed sets the base random seed (replication r of a sweep uses
// seed+r). An explicit zero is honored.
func WithSeed(seed int64) Option {
	return func(o *Options) { o.Seed = seed; o.seedSet = true }
}

// WithPacketSize overrides the default packet size.
func WithPacketSize(b units.Bytes) Option { return func(o *Options) { o.PacketSize = b } }

// WithDelayTracking enables per-flow queueing-delay measurement.
func WithDelayTracking() Option { return func(o *Options) { o.TrackDelays = true } }

// WithRuns sets the number of independent replications per point.
func WithRuns(n int) Option { return func(o *Options) { o.Runs = n } }

// WithWorkers bounds concurrent simulation runs (0 = GOMAXPROCS,
// 1 = sequential).
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithBufferSizes sets the swept buffer axis.
func WithBufferSizes(sizes ...units.Bytes) Option {
	return func(o *Options) { o.BufferSizes = sizes }
}

// WithHeadrooms sets the swept headroom axis (Figure 7).
func WithHeadrooms(hs ...units.Bytes) Option { return func(o *Options) { o.Headrooms = hs } }

// WithFig7Buffer fixes the total buffer of the Figure 7 headroom sweep.
func WithFig7Buffer(b units.Bytes) Option { return func(o *Options) { o.Fig7Buffer = b } }

// WithMetrics attaches a metrics registry; nil disables collection.
func WithMetrics(r *metrics.Registry) Option { return func(o *Options) { o.Metrics = r } }

// WithProgress attaches a sweep progress callback.
func WithProgress(fn ProgressFunc) Option { return func(o *Options) { o.Progress = fn } }

// WithTrace enables periodic metric snapshots on single runs: every
// interval simulated seconds the run's metrics are sampled, and the
// series is written as CSV to w when the run finishes. Requires
// WithMetrics.
func WithTrace(interval float64, w io.Writer) Option {
	return func(o *Options) { o.TraceInterval = interval; o.TraceWriter = w }
}

// defaults fills unset fields with the paper's setup. It mutates the
// receiver, so callers work on a copy of caller-owned Options.
func (o *Options) defaults() {
	if o.SchemeSpec == "" {
		o.SchemeSpec = "fifo+none"
	}
	if o.LinkRate == 0 {
		o.LinkRate = DefaultLinkRate
	}
	if o.PacketSize == 0 {
		o.PacketSize = DefaultPacketSize
	}
	if o.Duration == 0 {
		o.Duration = 20
	}
	if o.Warmup == 0 && !o.warmupSet {
		o.Warmup = o.Duration / 10
	}
	if o.Seed == 0 && !o.seedSet {
		o.Seed = 1
	}
	if o.Runs == 0 {
		o.Runs = 5
	}
	if len(o.BufferSizes) == 0 {
		for kb := 500; kb <= 5000; kb += 500 {
			o.BufferSizes = append(o.BufferSizes, units.KiloBytes(float64(kb)))
		}
	}
	if len(o.Headrooms) == 0 {
		for kb := 0; kb <= 1000; kb += 100 {
			o.Headrooms = append(o.Headrooms, units.KiloBytes(float64(kb)))
		}
	}
	if o.Fig7Buffer == 0 {
		o.Fig7Buffer = units.MegaBytes(1)
	}
}

// sweepDefaults is defaults plus the sweep-specific headroom default
// (2 MB, the §3.3 operating point). Single runs keep Headroom zero so
// threshold schemes are unaffected.
func (o *Options) sweepDefaults() {
	o.defaults()
	if o.Headroom == 0 {
		o.Headroom = units.MegaBytes(2)
	}
}

// Progress reports how far a sweep has come. Done/Total count
// individual simulation runs (line × point × replication).
type Progress struct {
	Done  int
	Total int
	// Elapsed is wall-clock time since the sweep started.
	Elapsed time.Duration
	// Remaining estimates time to completion from the mean run rate so
	// far (zero until the first run completes).
	Remaining time.Duration
}

// ProgressFunc receives sweep progress updates. It may be called
// concurrently from several pool workers; implementations must be
// safe for concurrent use (the qsim printer serializes internally).
type ProgressFunc func(Progress)

// progressTracker adapts a ProgressFunc to the pool's onDone hook,
// adding wall-clock ETA estimation.
type progressTracker struct {
	fn    ProgressFunc
	total int
	start time.Time
	done  atomic.Int64
}

func newProgressTracker(fn ProgressFunc, total int) *progressTracker {
	if fn == nil {
		return nil
	}
	return &progressTracker{fn: fn, total: total, start: time.Now()}
}

// onDone is the pool hook; nil trackers no-op.
func (t *progressTracker) onDone(int) {
	if t == nil {
		return
	}
	done := int(t.done.Add(1))
	elapsed := time.Since(t.start)
	var remaining time.Duration
	if done > 0 && done < t.total {
		remaining = time.Duration(float64(elapsed) / float64(done) * float64(t.total-done))
	}
	t.fn(Progress{Done: done, Total: t.total, Elapsed: elapsed, Remaining: remaining})
}
