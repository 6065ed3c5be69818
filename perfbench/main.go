// Command perfbench is the repository's benchmark: it runs one named
// workload against the real agent → kvstore → cloudstore stack, checks
// every output, and prints its metrics as one JSON object on the last
// line of standard output.
//
//	perfbench --workload warm-dedup --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates untraced and traced rounds and prints the per-layer
// metrics, measured from outside the program by wrapping the chunker,
// dialers and listeners it hands the stack. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// wallLimit stops starting new rounds, so a run ends well inside the
// three minutes a run may take even on a much slower machine.
const wallLimit = 120 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: warm-dedup, cold-ingest, backup-chain or edge-ring")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "timed seconds to measure (rounds repeat until reached)")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	workdir := flag.String("workdir", ".bench_build/perfbench", "scratch directory for durable stores and traces")
	flag.Parse()

	var spec *workloadSpec
	for i := range workloadSpecs {
		if workloadSpecs[i].name == *name {
			spec = &workloadSpecs[i]
		}
	}
	if spec == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	header := fmt.Sprintf("perfbench workload=%s seed=%d seconds=%g trace=%d go=%s nproc=%d gomaxprocs=%d",
		spec.name, *seed, *seconds, *trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Println("# " + header)

	env := &runEnv{seed: *seed, workdir: *workdir}
	var tracer *Tracer
	if *trace == 1 {
		tracer = newTracer()
	}
	minRounds := 3
	if tracer != nil {
		minRounds = 4
	}
	var rounds []*round
	var timed time.Duration
	var allSpans []Span
	var lastInputs [][]byte
	begin := time.Now()
	for i := 0; len(rounds) < minRounds || timed.Seconds() < *seconds; i++ {
		if time.Since(begin) > wallLimit {
			break
		}
		r := &round{traced: tracer != nil && i%2 == 1}
		env.round, env.tr = i, nil
		if r.traced {
			env.tr = tracer
		}
		if err := spec.run(env, r); err != nil {
			r.fail("round %d: %v", i, err)
			rounds = append(rounds, r)
			break
		}
		rounds = append(rounds, r)
		allSpans = append(allSpans, r.spans...)
		// Only the latest traced round's inputs are kept, for the
		// SHA-256 replay; the rest would pile up across rounds.
		if r.traced {
			lastInputs = r.inputs
		}
		r.inputs = nil
		timed += r.ingest.wall + r.restore.wall
		if len(r.failures) > 0 {
			break
		}
	}

	res := result{Metrics: map[string]metric{}}
	for _, r := range rounds {
		res.Attempted += r.attempted()
		res.Failed += len(r.failures)
		for _, f := range r.failures {
			fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
		}
	}
	res.Attempted = max(res.Attempted, res.Failed, 1)
	res.Correct = res.Failed == 0
	fmt.Printf("# rounds=%d timed_s=%.3f wall_s=%.3f\n", len(rounds), timed.Seconds(), time.Since(begin).Seconds())

	if tracer == nil {
		res.Metrics = endToEnd(rounds)
	} else {
		m, err := perLayer(rounds, allSpans, lastInputs)
		if err != nil {
			res.Correct = false
			res.Failed++
			fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
		}
		res.Metrics = m
		path := filepath.Join(*workdir, "trace-"+spec.name+".csv")
		if err := writeSpans(path, header, allSpans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write trace:", err)
		} else {
			fmt.Printf("# trace: %d spans in %s\n", len(allSpans), path)
		}
	}
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: FAILED: metric %s has no value\n", k)
			v.Value = 0
			res.Metrics[k] = v
			res.Correct = false
			res.Failed++
		}
	}
	printTable(res.Metrics)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}
