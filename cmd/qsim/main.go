// Command qsim regenerates the paper's simulation figures.
//
// Usage:
//
//	qsim -fig fig1            # one figure, text table to stdout
//	qsim -fig all -csv out/   # everything, CSVs into out/
//	qsim -fig fig4 -runs 3 -duration 10
//	qsim -fig fig1 -progress -metrics metrics.json -pprof localhost:6060
//
// Each figure sweeps the total buffer size (or, for fig7, the headroom)
// across the schemes the paper compares, averaging over independent
// replications and reporting 95% confidence half-widths.
//
// Interrupting qsim (Ctrl-C) cancels the in-flight sweep: runs stop
// within about one run's simulated duration, and the partial figure
// (points summarizing only their completed replications) plus the
// -metrics dump are still written before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"bufqos/internal/experiment"
	"bufqos/internal/metrics"
	"bufqos/internal/scheme"
	"bufqos/internal/units"
)

// maxWorkers clamps absurd -workers values: beyond a few times the CPU
// count extra goroutines only add scheduling overhead.
func maxWorkers() int { return 8 * runtime.GOMAXPROCS(0) }

func main() {
	var (
		figFlag     = flag.String("fig", "all", "figure id (fig1..fig13), comma list, or 'all'")
		runs        = flag.Int("runs", 5, "independent replications per point")
		duration    = flag.Float64("duration", 20, "simulated seconds per run")
		warmup      = flag.Float64("warmup", 2, "discarded warm-up seconds")
		seed        = flag.Int64("seed", 1, "base random seed")
		headroom    = flag.Float64("headroom", 2, "sharing headroom H in MB")
		buffers     = flag.String("buffers", "", "comma-separated buffer sizes in KB (default 500..5000 step 500)")
		csvDir      = flag.String("csv", "", "directory to write per-figure CSV files (optional)")
		fig7buf     = flag.Float64("fig7buffer", 1, "fixed buffer for the fig7 headroom sweep, MB")
		workload    = flag.String("workload", "", "JSON workload file: run a custom buffer sweep instead of the paper figures")
		schemes     = flag.String("schemes", "", "comma list of scheme specs for -workload sweeps, e.g. 'fifo+threshold,wfq+sharing,hybrid:2+sharing' (default: the workload's own schemes, else fifo+threshold,wfq+threshold,fifo+none)")
		listSchemes = flag.Bool("list-schemes", false, "print the scheme registry catalogue and exit")
		workers     = flag.Int("workers", 0, "concurrent simulation runs (0 = GOMAXPROCS, 1 = sequential; results are identical)")
		metricsOut  = flag.String("metrics", "", "write aggregated metrics as JSON to this file ('-' for stderr) when done")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		showProgres = flag.Bool("progress", false, "report sweep progress (runs done/total, ETA) on stderr")
	)
	flag.Parse()

	if *listSchemes {
		if err := scheme.WriteCatalogue(os.Stdout); err != nil {
			fatalf("writing catalogue: %v", err)
		}
		return
	}
	if *workers < 0 {
		fatalf("-workers must be >= 0 (got %d)", *workers)
	}
	if max := maxWorkers(); *workers > max {
		fmt.Fprintf(os.Stderr, "qsim: clamping -workers %d to %d (8x GOMAXPROCS)\n", *workers, max)
		*workers = max
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "qsim: pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "qsim: pprof at http://%s/debug/pprof/\n", *pprofAddr)
	}

	// Ctrl-C cancels the sweep; partial results and metrics still flush.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := experiment.NewOptions(
		experiment.WithRuns(*runs),
		experiment.WithDuration(*duration),
		experiment.WithWarmup(*warmup),
		experiment.WithSeed(*seed),
		experiment.WithHeadroom(units.MegaBytes(*headroom)),
		experiment.WithFig7Buffer(units.MegaBytes(*fig7buf)),
		experiment.WithWorkers(*workers),
	)
	var reg *metrics.Registry
	if *metricsOut != "" {
		reg = metrics.NewRegistry()
		opts.Metrics = reg
	}
	if *showProgres {
		opts.Progress = progressPrinter()
	}
	if *buffers != "" {
		for _, part := range strings.Split(*buffers, ",") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%g", &kb); err != nil {
				fatalf("bad -buffers entry %q: %v", part, err)
			}
			opts.BufferSizes = append(opts.BufferSizes, units.KiloBytes(kb))
		}
	}

	interrupted := false
	defer func() {
		flushMetrics(reg, *metricsOut)
		if interrupted {
			fmt.Fprintln(os.Stderr, "qsim: interrupted; partial results written")
			os.Exit(130)
		}
	}()

	if *workload != "" {
		interrupted = runWorkloadSweep(ctx, *workload, *schemes, opts, *csvDir)
		return
	}

	var ids []string
	if *figFlag == "all" {
		ids = experiment.FigureIDs()
	} else {
		for _, id := range strings.Split(*figFlag, ",") {
			id = strings.TrimSpace(id)
			if _, ok := experiment.Figures[id]; !ok {
				fatalf("unknown figure %q; known: %s", id, strings.Join(experiment.FigureIDs(), " "))
			}
			ids = append(ids, id)
		}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatalf("creating %s: %v", *csvDir, err)
		}
	}

	for _, id := range ids {
		fig, err := experiment.Figures[id](ctx, opts)
		if err != nil && !errors.Is(err, context.Canceled) {
			fatalf("%s: %v", id, err)
		}
		writeFigure(fig, *csvDir)
		if err != nil {
			interrupted = true
			return
		}
	}
}

// writeFigure emits one figure as a stdout table and, optionally, a CSV
// file. Used for complete and partial (interrupted) figures alike.
func writeFigure(fig experiment.Figure, csvDir string) {
	if err := experiment.WriteTable(os.Stdout, fig); err != nil {
		fatalf("writing table: %v", err)
	}
	fmt.Println()
	if csvDir != "" {
		path := filepath.Join(csvDir, fig.ID+".csv")
		f, err := os.Create(path)
		if err != nil {
			fatalf("creating %s: %v", path, err)
		}
		if err := experiment.WriteCSV(f, fig); err != nil {
			f.Close()
			fatalf("writing %s: %v", path, err)
		}
		if err := f.Close(); err != nil {
			fatalf("closing %s: %v", path, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
}

// progressPrinter returns a ProgressFunc that rewrites one stderr line,
// throttled to 10 updates/s. The callback arrives concurrently from
// pool workers, so it serializes with a mutex.
func progressPrinter() experiment.ProgressFunc {
	var mu sync.Mutex
	var lastPrint time.Time
	return func(p experiment.Progress) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		if p.Done < p.Total && now.Sub(lastPrint) < 100*time.Millisecond {
			return
		}
		lastPrint = now
		eta := ""
		if p.Remaining > 0 {
			eta = fmt.Sprintf(", ETA %s", p.Remaining.Round(time.Second))
		}
		fmt.Fprintf(os.Stderr, "\rqsim: %d/%d runs (%s elapsed%s)   ",
			p.Done, p.Total, p.Elapsed.Round(time.Second), eta)
		if p.Done == p.Total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

// flushMetrics writes the aggregated registry as JSON to path ("-" for
// stderr). It runs even after an interrupt so partial sweeps still
// leave their telemetry behind.
func flushMetrics(reg *metrics.Registry, path string) {
	if reg == nil || path == "" {
		return
	}
	if path == "-" {
		if err := reg.Snapshot().WriteJSON(os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "qsim: writing metrics: %v\n", err)
		}
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qsim: creating %s: %v\n", path, err)
		return
	}
	if err := reg.Snapshot().WriteJSON(f); err != nil {
		fmt.Fprintf(os.Stderr, "qsim: writing %s: %v\n", path, err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "qsim: closing %s: %v\n", path, err)
	}
	fmt.Fprintf(os.Stderr, "qsim: metrics written to %s\n", path)
}

// runWorkloadSweep loads a JSON workload and runs the fig1/fig2-style
// buffer sweep over the requested schemes. It reports whether the sweep
// was interrupted.
func runWorkloadSweep(ctx context.Context, path, schemeList string, opts *experiment.Options, csvDir string) bool {
	f, err := os.Open(path)
	if err != nil {
		fatalf("opening workload: %v", err)
	}
	w, err := experiment.ParseWorkload(f)
	f.Close()
	if err != nil {
		fatalf("%v", err)
	}
	// An empty -schemes defers to the workload's own scheme list (then
	// the built-in default) inside SweepWorkload.
	var specs []string
	if schemeList != "" {
		for _, name := range strings.Split(schemeList, ",") {
			spec := strings.TrimSpace(name)
			if _, err := scheme.Parse(spec); err != nil {
				fatalf("%v\navailable specs: %s\n(see -list-schemes for parameters)",
					err, strings.Join(scheme.Specs(), ", "))
			}
			specs = append(specs, spec)
		}
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			fatalf("creating %s: %v", csvDir, err)
		}
	}
	util, loss, err := experiment.SweepWorkload(ctx, w, specs, opts)
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		fatalf("sweep: %v", err)
	}
	for _, fig := range []experiment.Figure{util, loss} {
		if len(fig.Series) == 0 {
			continue
		}
		writeFigure(fig, csvDir)
	}
	return interrupted
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "qsim: "+format+"\n", args...)
	os.Exit(1)
}
