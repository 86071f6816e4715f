// Backbone: the paper's scheme deployed at every hop of a multi-node
// path. A premium customer's conformant flow crosses three hops; each
// hop also carries its own local aggressive traffic. With threshold
// buffer management at every output port (O(1) per packet, per the
// paper's scalability argument), the flow's end-to-end rate guarantee
// survives all three contention points; with plain FIFO it collapses
// at the first.
//
// The scenario is a topology file (backbone.json, embedded below) run
// on the multi-hop engine twice: once with every link on "fifo+none",
// once on "fifo+threshold".
//
//	go run ./examples/backbone
package main

import (
	"bytes"
	"context"
	_ "embed"
	"fmt"
	"os"
	"text/tabwriter"

	"bufqos/internal/topology"
)

//go:embed backbone.json
var backboneJSON []byte

// load parses the embedded scenario with every link running spec.
func load(spec string) (*topology.Topology, error) {
	t, err := topology.Parse(bytes.NewReader(backboneJSON))
	if err != nil {
		return nil, err
	}
	for i := range t.Links {
		t.Links[i].Spec = spec
	}
	return t, t.Validate()
}

func main() {
	const duration = 10.0
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for i, spec := range []string{"fifo+none", "fifo+threshold"} {
		t, err := load(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "backbone: %v\n", err)
			os.Exit(1)
		}
		if i == 0 {
			l, c := t.Links[0], t.Flows[0]
			fmt.Printf("%d-hop backbone, %v links, %v buffers, %g ms propagation per hop\n",
				len(t.Links), l.Rate, l.Buffer, l.PropDelay*1e3)
			fmt.Printf("%s: conformant, SLA %v end-to-end; one unshaped aggressor per hop at the link rate\n\n",
				c.Name, c.Spec.TokenRate)
			fmt.Fprint(tw, "per-hop scheme\tend-to-end rate\tSLA attainment\tworst delay")
			for _, l := range t.Links {
				fmt.Fprintf(tw, "\tdrops %s", l.Name)
			}
			fmt.Fprintln(tw)
		}
		res, err := topology.Run(context.Background(), t, topology.Options{Duration: duration, Seed: 1})
		if err != nil {
			fmt.Fprintf(os.Stderr, "backbone: %v\n", err)
			os.Exit(1)
		}
		customer := res.Flows[0]
		sla := t.Flows[0].Spec.TokenRate
		fmt.Fprintf(tw, "%s\t%v\t%.1f%%\t%.1f ms", spec, customer.Throughput,
			100*customer.Throughput.BitsPerSecond()/sla.BitsPerSecond(), customer.MaxDelay*1e3)
		for _, l := range res.Links {
			fmt.Fprintf(tw, "\t%d", l.Flows[0].Dropped.Packets)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	fmt.Println("\nEvery hop makes its admission decision from two counters (flow occupancy")
	fmt.Println("and total) — no per-flow scheduling state anywhere on the path.")
}
