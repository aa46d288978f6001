// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload per process, checks every output the workload produces,
// and prints one JSON result line whose metrics are the end-to-end set
// (--trace 0) or the per-layer set of a traced run (--trace 1). From the
// repository root:
//
//	bash perfbench/run.sh --workload paper-suite --seed 42 --seconds 25 --trace 0
//
// The workloads, the metric definitions and the layer each per-layer
// metric explains are documented in README.md; BENCHMARK.json at the
// repository root names them, with their bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// defaultSeed is the workload seed whose outputs are pinned by digest
// (suiteCSVDigest, campaignJSONDigest, campaignCSVDigest). Every other
// seed is checked by invariants alone.
const defaultSeed = 42

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final standard-output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options fixes one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// quick shrinks every workload's fixed work for the self-test;
	// digests are only compared at full size.
	quick bool
	// corruptExpected, when > 0, replaces that many expected serve
	// bodies with wrong ones, so the self-test can show a wrong output
	// is counted as failed instead of passing.
	corruptExpected int
	// traceDir receives the traced run's span file ("" = none).
	traceDir string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed (digests are pinned for the default)")
	flag.IntVar(&o.seconds, "seconds", 25, "measured seconds: passes repeat while the next one should end within them")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.traceDir, "trace-dir", ".bench_build/trace", "directory for the traced run's span file")
	flag.Parse()
	o.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if o.seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	res, err := run(o)
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	env, _ := json.Marshal(map[string]any{"env": environment(), "workload": o.workload, "seed": o.seed, "trace": o.trace})
	fmt.Println(string(env))
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// run sets the workload up several times (setup_s is the median),
// then either repeats its measured pass for about o.seconds and reports
// medians, or makes one untraced and one traced pass, replays the
// traced pass's inputs layer by layer and reports the per-layer
// metrics.
func run(o options) (*result, error) {
	newBench, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames())
	}
	b, err := newBench(o)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	defer b.tearDown()
	if w := waitQuiet(); w > 2*time.Second {
		fmt.Fprintf(os.Stderr, "perfbench: waited %.1f s for the hypervisor to stop stealing CPU time\n", w.Seconds())
	}
	// Each sample is the mean set-up time over a batch of at least
	// setupBatch, because single microsecond-scale set-ups on a shared
	// machine scatter by a factor of two. Tearing the previous set-up
	// down is not timed.
	var setups []float64
	for start := time.Now(); len(setups) < minSetups || time.Since(start) < minSetupTime; {
		runtime.GC() // every batch starts from a collected heap
		var spent time.Duration
		n := 0
		for t0 := time.Now(); n == 0 || time.Since(t0) < setupBatch; n++ {
			b.tearDown()
			s0 := time.Now()
			if err := b.setUp(); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			spent += time.Since(s0)
		}
		setups = append(setups, spent.Seconds()/float64(n))
	}

	t := &tally{}
	metrics := map[string]metric{}
	if o.trace {
		untraced, err := measure(func() error { return b.pass(t, nil) })
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		traced, err := measure(func() error { return b.pass(t, tr) })
		if err != nil {
			return nil, err
		}
		if err := b.layers(t, tr, metrics); err != nil {
			return nil, err
		}
		metrics["trace.overhead_s"] = metric{traced.wall - untraced.wall, "s"}
		metrics["fail_ratio"] = metric{float64(t.failed) / float64(max(t.attempted, 1)), "ratio"}
		// Every traced run reports the whole per-layer set; a layer
		// this workload never reaches did no work and reads 0.
		for _, m := range perLayer {
			if _, ok := metrics[m.name]; !ok {
				metrics[m.name] = metric{0, m.unit}
			}
		}
		if o.traceDir != "" {
			if err := tr.write(o.traceDir, o.workload); err != nil {
				return nil, err
			}
		}
	} else {
		// Passes repeat while the next one is expected to end within
		// o.seconds (plus a tenth), so a run measures for about
		// o.seconds whatever the length of a pass.
		var samples []sample
		start := time.Now()
		limit := time.Duration(o.seconds) * time.Second * 11 / 10
		for len(samples) == 0 || time.Since(start)+time.Since(start)/time.Duration(len(samples)) <= limit {
			s, err := measure(func() error { return b.pass(t, nil) })
			if err != nil {
				return nil, err
			}
			samples = append(samples, s)
			fmt.Fprintf(os.Stderr, "perfbench: pass %d: wall %.3f s, cpu %.3f s, alloc %.1f MB, steal %.1f %%\n",
				len(samples), s.wall, s.cpu, s.allocMB, 100*s.steal)
		}
		samples = quiet(samples)
		metrics["setup_s"] = metric{median(setups), "s"}
		metrics["wall_s"] = metric{median(field(samples, func(s sample) float64 { return s.wall })), "s"}
		metrics["cpu_s"] = metric{median(field(samples, func(s sample) float64 { return s.cpu })), "s"}
		metrics["alloc_mb"] = metric{median(field(samples, func(s sample) float64 { return s.allocMB })), "MB"}
		metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	}
	t.report()
	return &result{
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	}, nil
}

// Set-up batches repeat until both limits are met, so setup_s is a
// median of several batches rather than one noisy sample.
const (
	minSetups    = 5
	minSetupTime = 500 * time.Millisecond
	setupBatch   = 50 * time.Millisecond
)

// bench is one workload. Its constructor prepares the benchmark's own
// inputs and expected outputs, which are not timed.
type bench interface {
	// setUp performs the workload's set-up (README.md says what it
	// is for each workload); the measured passes use the state of the
	// last call. run times it repeatedly for setup_s.
	setUp() error
	// tearDown releases what setUp made; it is safe to call before
	// setUp and more than once.
	tearDown()
	// pass runs the workload's fixed work once and checks its
	// outputs into t. tr is nil for an untraced pass.
	pass(t *tally, tr *tracer) error
	// layers runs the traced run's replays over the inputs the traced
	// pass used and stores the per-layer metrics.
	layers(t *tally, tr *tracer, out map[string]metric) error
}

// workloads maps each workload name to its constructor. BENCHMARK.json
// records why each one is there.
var workloads = map[string]func(o options) (bench, error){
	"paper-suite":    newSuite,
	"campaign-mix":   newCampaign,
	"serve-evaluate": newServeEvaluate,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// tally counts the operations a run attempted and the ones that
// failed: errors, refusals and wrong outputs alike.
type tally struct {
	attempted, failed int
	msgs              []string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.msgs) < 10 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
}

// check counts one operation, failed unless cond holds.
func (t *tally) check(cond bool, format string, args ...any) {
	if cond {
		t.ok()
	} else {
		t.fail(format, args...)
	}
}

func (t *tally) report() {
	for _, m := range t.msgs {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", m)
	}
	if t.failed > len(t.msgs) {
		fmt.Fprintf(os.Stderr, "perfbench: ... %d failures in all\n", t.failed)
	}
}
