package main

import "fmt"

// throughput collects a workload's timed iterations: the operations
// each did and the process CPU time it took.
//
// The rate it reports is the 10th percentile of the iterations' rates,
// the speed the workload holds in nine iterations out of ten; as a time
// it is the 90th percentile of the CPU time per operation. On a shared
// host the same iteration runs at the speed the host gives while its
// other tenants are busy, and much faster while they are idle; busy and
// idle spells last from seconds to minutes, so the share of a run that
// falls in idle ones, and with it the run's median or mean rate,
// changes from run to run. The low percentile stays with the busy
// spells, which nearly every run meets, and moves much less. A change
// that makes every iteration faster moves it as much as it moves the
// median.
type throughput struct {
	ops, cpu float64
	rates    []float64
}

// add records one timed iteration that did ops operations in cpu seconds
// of process CPU time.
func (t *throughput) add(ops, cpu float64) {
	t.ops += ops
	t.cpu += cpu
	t.rates = append(t.rates, ops/cpu)
}

func (t *throughput) iters() int { return len(t.rates) }

// report sets ops_per_cpu_s_p10 and prints the figures behind it: the
// rate over all iterations together, the median, and every sample.
func (t *throughput) report(c *runCtx) {
	c.set("ops_per_cpu_s_p10", quantile(t.rates, 0.10))
	fmt.Fprintf(c.out, "throughput iterations=%d ops=%.0f cpu_s=%.4f overall=%.1f median=%.1f p10=%.1f\n",
		len(t.rates), t.ops, t.cpu, ratio(t.ops, t.cpu), median(t.rates), quantile(t.rates, 0.10))
	fmt.Fprintf(c.out, "samples %.0f\n", t.rates)
}
