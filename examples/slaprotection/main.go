// SLA protection: the paper's motivating scenario — a provider sells
// "Service Level Agreements" (rate guarantees) on a backbone link and
// must keep misbehaving customers from starving paying ones, at
// per-packet costs that scale to thousands of flows.
//
// This example runs the full Table 1 workload (six conformant customers
// with SLAs, three aggressive ones) through the four §3.2 schemes and
// prints each customer's SLA attainment.
//
//	go run ./examples/slaprotection
package main

import (
	"context"
	"fmt"
	"os"
	"text/tabwriter"

	"bufqos/internal/experiment"
	"bufqos/internal/scheme"
	"bufqos/internal/units"
)

func main() {
	flows := experiment.Table1Flows()
	schemes := []string{"fifo+none", "wfq+none", "fifo+threshold", "wfq+threshold"}

	fmt.Println("SLA attainment on a 48 Mb/s link, 1 MB buffer, Table 1 workload")
	fmt.Println("(delivered rate / reserved rate for the six conformant customers; 10 s run)")
	fmt.Println()

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "customer\treserved")
	for _, s := range schemes {
		fmt.Fprintf(tw, "\t%s", scheme.MustParse(s))
	}
	fmt.Fprintln(tw)

	results := make([]experiment.Result, len(schemes))
	for i, s := range schemes {
		res, err := experiment.Run(context.Background(), experiment.NewOptions(
			experiment.WithFlows(flows),
			experiment.WithSchemeSpec(s),
			experiment.WithBuffer(units.MegaBytes(1)),
			experiment.WithDuration(10),
			experiment.WithWarmup(1),
			experiment.WithSeed(42),
		))
		if err != nil {
			fmt.Fprintf(os.Stderr, "slaprotection: %v\n", err)
			os.Exit(1)
		}
		results[i] = res
	}

	for id := 0; id <= 5; id++ {
		reserved := flows[id].Spec.TokenRate
		fmt.Fprintf(tw, "flow %d\t%v", id, reserved)
		for _, res := range results {
			attain := res.FlowThroughput[id].BitsPerSecond() / reserved.BitsPerSecond()
			fmt.Fprintf(tw, "\t%5.1f%%", 100*attain)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	fmt.Println()
	tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\tlink utilization\tconformant loss")
	for i, s := range schemes {
		fmt.Fprintf(tw, "%s\t%.1f%%\t%.2f%%\n", scheme.MustParse(s), 100*results[i].Utilization, 100*results[i].ConformantLoss)
	}
	tw.Flush()

	fmt.Println()
	fmt.Println("Without buffer management, both schedulers let the aggressive flows")
	fmt.Println("(6-8, offering far above their reservations) push conformant traffic out")
	fmt.Println("of the buffer. Thresholds restore the SLAs — and for FIFO they do it")
	fmt.Println("with O(1) per-packet work, no sorted queues.")
}
