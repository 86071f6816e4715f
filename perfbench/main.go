// Command perfbench is the repository's benchmark: it runs one named
// workload against the public entry points of bufqos, checks that the
// outputs are correct, and prints every metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run reports the per-layer split instead and writes
// its sampled spans under .bench_build/trace/.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it:
//
//	bash perfbench/run.sh --workload paper-link --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
)

// runCtx carries one invocation's parameters and collects its outcome.
type runCtx struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      io.Writer
	// traceDir receives the sampled spans of a traced run.
	traceDir string

	attempted int64
	failed    int64
	values    map[string]float64
}

// attempt counts n operations, failed of which failed.
func (c *runCtx) attempt(n, failed int64) {
	c.attempted += n
	c.failed += failed
}

// check counts one correctness check and reports a failure on stderr.
func (c *runCtx) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", c.workload, fmt.Sprintf(format, args...))
	}
}

// fail records a failed operation that stopped the workload early.
func (c *runCtx) fail(err error) {
	c.check(false, "%v", err)
}

// set records a metric value. Names outside the metric tables are a bug.
func (c *runCtx) set(name string, v float64) {
	if _, ok := lookupMetric(name); !ok {
		panic("perfbench: unknown metric " + name)
	}
	c.values[name] = v
}

// ratio is a/b, 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

type output struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "seed the workload derives its inputs from")
		seconds = flag.Float64("seconds", 10, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer split instead of the end-to-end run")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %v --seed N --seconds S --trace 0|1\n", names)
		os.Exit(2)
	}
	c := &runCtx{
		workload: w.name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		out:      os.Stdout,
		traceDir: ".bench_build/trace",
		values:   map[string]float64{},
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	printHost(c, w)
	if err := w.run(c); err != nil {
		c.fail(err)
	}
	if c.attempted == 0 {
		c.check(false, "workload attempted nothing")
	}
	c.set("failed_frac", ratio(float64(c.failed), float64(c.attempted)))

	list := endToEnd
	if c.trace {
		list = perLayer
	}
	out := output{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metricJSON{}}
	for _, m := range list {
		v, ok := c.values[m.name]
		if !ok && !c.trace {
			c.failed++
			out.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s: end-to-end metric %s not measured\n", w.name, m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
	}
	out.Failed = c.failed
	names := make([]string, 0, len(c.values))
	for n := range c.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m, _ := lookupMetric(n)
		fmt.Fprintf(c.out, "metric %-30s %-14.6g %-6s %s\n", n, c.values[n], m.unit, m.doc)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(c.out, string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// printHost writes the host record and the workload's rationale, so a
// figure can always be traced back to the machine and inputs behind it.
func printHost(c *runCtx, w *workload) {
	fmt.Fprintf(c.out, "host nproc=%d gomaxprocs=%d go=%s os=%s arch=%s loopback=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, loopbackAddr)
	fmt.Fprintf(c.out, "run workload=%s seed=%d seconds=%g trace=%t\n", w.name, c.seed, c.seconds, c.trace)
	fmt.Fprintf(c.out, "why %s\n", w.why)
	fmt.Fprintf(c.out, "layers exercised=%v bypassed=%v\n", w.exercised, w.bypassed)
}
