// Command servebench is the serving benchmark: it builds the snapdyn
// serving stack in-process the way cmd/snapserve does, serves it on a
// loopback listener, drives one workload over real HTTP from the same
// process, checks the replies against the kernels, and prints every
// metric by name and unit. The last line of its output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	servebench -workload hot-reads|cold-reads|durable-ingest -seed N -seconds S -trace 0|1
//
// -trace 0 reports the end-to-end metrics. -trace 1 runs the workload
// twice, untraced then traced, and reports the per-layer metrics of the
// traced run together with its overhead over the untraced one. See
// README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// setupRepeats is how many times an untraced run builds its stack; the
// median build time is setup_s.
const setupRepeats = 3

// selfSumTolerance bounds how far, in percent, the traced requests'
// stage self times may sum away from their client round trips.
const selfSumTolerance = 5

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "hot-reads, cold-reads or durable-ingest")
	seed := fs.Uint64("seed", 1, "seed of the graph and of every request")
	seconds := fs.Int("seconds", 20, "length of the timed window")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	root := fs.String("root", ".", "checkout root; scratch files go under its .bench_build")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloads, *workload) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "servebench: want -workload %v, -seconds >= 1, -trace 0|1\n", workloads)
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second, root: *root}
	prov := newProvenance(*root, cfg.workload, cfg.seed, cfg.window, *trace == 1)
	b, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", b)

	var out result
	var err error
	if *trace == 1 {
		out, err = runTraced(cfg, prov)
	} else {
		out, err = runUntraced(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		return 1
	}
	b, _ = json.Marshal(out)
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runPass(cfg config, tr *tracer, nSetups int) (*pass, error) {
	switch cfg.workload {
	case hotReads:
		return runHot(cfg, tr, nSetups)
	case coldReads:
		return runCold(cfg, tr, nSetups)
	default:
		return runDurable(cfg, tr, nSetups)
	}
}

// printPass prints a pass's figures by name and unit.
func printPass(label string, p *pass, metrics map[string]metric) {
	fmt.Printf("== %s\n", label)
	for _, l := range p.report {
		fmt.Println(l)
	}
	fmt.Printf("%-22s %12.6f ratio  (%d/%d)\n", "fail_ratio", ratio(float64(p.failed), float64(p.attempted)), p.failed, p.attempted)
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-26s %14.4f %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	for _, w := range p.wrong {
		fmt.Printf("INCORRECT: %s\n", w)
	}
}

func runUntraced(cfg config) (result, error) {
	p, err := runPass(cfg, nil, setupRepeats)
	if err != nil {
		return result{}, err
	}
	printPass(cfg.workload+" end to end", p, p.e2e)
	return result{Correct: len(p.wrong) == 0, Attempted: p.attempted, Failed: p.failed, Metrics: p.e2e}, nil
}

// runTraced runs the workload untraced and then traced, each with one
// set-up, and reports the traced run's per-layer metrics plus, as
// trace.delta.<metric>, what tracing added to each end-to-end metric.
func runTraced(cfg config, prov provenance) (result, error) {
	base, err := runPass(cfg, nil, 1)
	if err != nil {
		return result{}, err
	}
	printPass(cfg.workload+" untraced", base, base.e2e)
	tr := newTracer()
	p, err := runPass(cfg, tr, 1)
	if err != nil {
		return result{}, err
	}
	layers := p.layers
	spanLayers(tr.spans, tr.ckpts, layers)
	traceDeltas(base.e2e, p.e2e, layers)
	printPass(cfg.workload+" traced", p, layers)
	path := filepath.Join(cfg.root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.dump(path, prov); err != nil {
		return result{}, err
	}
	fmt.Printf("spans written to %s\n", path)
	correct := len(base.wrong) == 0 && len(p.wrong) == 0
	if e := layers["trace.selfsum_err_pct"].Value; e > selfSumTolerance {
		fmt.Printf("INCORRECT: stage self times sum to the round trip only within %.2f%%\n", e)
		correct = false
	}
	return result{Correct: correct, Attempted: base.attempted + p.attempted,
		Failed: base.failed + p.failed, Metrics: layers}, nil
}
