// Command e2ebench is the repository's end-to-end benchmark. In one
// process it builds an InfoSleuth community whose agents all listen on
// loopback TCP, configured as the daemons' default flags configure them,
// drives one of three seeded workloads through it, checks every answer
// against an oracle, and prints one JSON result line.
//
//	bash e2ebench/run.sh --workload lookup --seed 1 --seconds 30 --trace 0
//
// Workloads (spec.json records why each was chosen, its sizes, its agent
// configuration and its fixed open-loop rate; the rate, set-ups and
// warm-up the program uses are in the workloads table of measure.go):
//
//	lookup     broker search over a 2-broker consortium with 20k ads, beside a wire advertise/unadvertise stream
//	federated  user-agent Submit through broker, MRQ and six resource agents
//	subscribe  InsertRow against a resource agent holding 10k standing queries
//
// With --trace 0 a run sets up several times (setup_s is the median),
// warms up, runs an open-loop phase at the workload's fixed rate for
// latency and a closed-loop phase with GOMAXPROCS callers for capacity,
// and reports set-up time, CPU per operation and live heap in the result
// line, with latency and capacity on standard error. With --trace 1 it
// runs an untraced and a traced open-loop phase and reports the
// per-layer metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: lookup, federated or subscribe")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "seconds of measured load")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: want --workload lookup|federated|subscribe, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	// Agents log through slog; keep only warnings, on standard error.
	slog.SetDefault(slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)

	rep, err := measure(context.Background(), config{
		workload: w, rate: w.rate, seed: *seed, seconds: *seconds, trace: *trace == 1, callers: procs,
	})
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stderr, "e2ebench: %s seed=%d trace=%d gomaxprocs=%d rate=%g/s attempted=%d failed=%d failed_ratio=%.6f correct=%v\n",
		w.name, *seed, *trace, procs, w.rate, rep.Attempted, rep.Failed,
		float64(rep.Failed)/float64(rep.Attempted), rep.Correct)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stderr, "  %-32s %14.4f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	for _, n := range []string{"p50_ms", "p90_ms", "p99_ms", "throughput_ops_s", "side_samples", "side_p50_ms", "side_p90_ms", "side_p99_ms"} {
		if v, ok := rep.Extra[n]; ok {
			fmt.Fprintf(stderr, "  %-32s %14.4f (not in the result line)\n", n, v)
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
