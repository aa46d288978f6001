package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sample is one measured pass. steal is the share of the machine's
// CPU time the hypervisor gave to other guests during the pass.
type sample struct {
	wall, cpu, allocMB, steal float64
}

// measure runs fn from a collected heap and reports its wall time,
// process CPU time, bytes allocated and the steal share.
func measure(fn func() error) (sample, error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a0 := ms.TotalAlloc
	c0, s0 := cpuSeconds(), stealSeconds()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0).Seconds()
	cpu, steal := cpuSeconds()-c0, stealSeconds()-s0
	runtime.ReadMemStats(&ms)
	return sample{
		wall: wall, cpu: cpu, allocMB: float64(ms.TotalAlloc-a0) / (1 << 20),
		steal: steal / (wall * float64(runtime.NumCPU())),
	}, err
}

// On a shared virtual machine the hypervisor sometimes runs other
// guests on this machine's CPUs for tens of seconds at a time; every
// timing taken then reads 20-40 % slow, which no amount of repetition
// inside one run averages out. A run therefore waits (at most
// maxQuietWait) for a second in which less than quietSteal of the CPU
// time was stolen, and keeps only passes below that share when it has
// any.
const (
	quietSteal   = 0.02
	maxQuietWait = 10 * time.Second
)

// stealSeconds is the CPU time the hypervisor has withheld from this
// machine's CPUs since boot (the steal column of /proc/stat, in
// USER_HZ = 100 ticks per second); 0 where the kernel does not report
// it.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// waitQuiet waits until a one-second window had a steal share below
// quietSteal, or maxQuietWait has passed, and returns the time waited.
func waitQuiet() time.Duration {
	start := time.Now()
	for time.Since(start) < maxQuietWait {
		s0 := stealSeconds()
		time.Sleep(time.Second)
		if (stealSeconds()-s0)/float64(runtime.NumCPU()) < quietSteal {
			break
		}
	}
	return time.Since(start)
}

// quiet keeps the samples taken below the steal threshold, or all of
// them when none was.
func quiet(ss []sample) []sample {
	var out []sample
	for _, s := range ss {
		if s.steal < quietSteal {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return ss
	}
	return out
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func field(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (0 when xs is
// empty: a layer the workload never reached).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func durations(ds []time.Duration, scale func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = scale(d)
	}
	return out
}

// ---- tracing ----

// span is one timed call into a layer. Spans of one operation (a
// request, a generation) share run; parent indexes the enclosing span
// (-1 at top level).
type span struct {
	name       string
	start, end time.Duration
	parent     int32
	run        int32
}

// tracer keeps spans in memory; they are written out once the run's
// measurements are done. A tracer is used by one goroutine at a time.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end.
func (tr *tracer) begin(name string, parent, run int) int {
	tr.spans = append(tr.spans, span{name: name, start: time.Since(tr.t0), parent: int32(parent), run: int32(run)})
	return len(tr.spans) - 1
}

func (tr *tracer) end(i int) { tr.spans[i].end = time.Since(tr.t0) }

// add records a span whose times were taken elsewhere (a request
// timed by its connection goroutine).
func (tr *tracer) add(name string, start, end time.Time, parent, run int) int {
	tr.spans = append(tr.spans, span{name: name, start: start.Sub(tr.t0), end: end.Sub(tr.t0), parent: int32(parent), run: int32(run)})
	return len(tr.spans) - 1
}

// allRuns selects the spans of every run in total and self.
const allRuns = -1

// total sums the durations of the spans named name in run (or in
// every run).
func (tr *tracer) total(name string, run int) time.Duration {
	var d time.Duration
	for _, s := range tr.spans {
		if s.name == name && (run == allRuns || int(s.run) == run) {
			d += s.end - s.start
		}
	}
	return d
}

// self is the time the spans named name in run (or in every run)
// spent outside their child spans.
func (tr *tracer) self(name string, run int) time.Duration {
	d := tr.total(name, run)
	for _, s := range tr.spans {
		if s.parent >= 0 && tr.spans[s.parent].name == name && (run == allRuns || int(s.run) == run) {
			d -= s.end - s.start
		}
	}
	return d
}

// durationsOf lists the durations of every span named name, in order.
func (tr *tracer) durationsOf(name string) []time.Duration {
	var ds []time.Duration
	for _, s := range tr.spans {
		if s.name == name {
			ds = append(ds, s.end-s.start)
		}
	}
	return ds
}

// write stores the spans as JSON lines in dir/<workload>.spans.jsonl.
func (tr *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".spans.jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for i, s := range tr.spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"run":%d}`+"\n",
			i, s.name, s.start.Nanoseconds(), s.end.Nanoseconds(), s.parent, s.run)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// ---- environment ----

// environment records what a result was measured on.
func environment() map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		env["commit"] = c
	}
	return env
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if k, v, ok := strings.Cut(string(line), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// ---- metric names ----

type metricName struct{ name, unit string }

// endToEnd is reported by every untraced run, whatever the workload.
var endToEnd = []metricName{
	{"setup_s", "s"}, {"wall_s", "s"}, {"cpu_s", "s"}, {"alloc_mb", "MB"}, {"peak_rss_mb", "MB"},
}

// perLayer is reported by every traced run. Each workload fills the
// metrics of the layers it reaches (README.md lists which).
var perLayer = []metricName{
	// paper-suite
	{"alloc.eval_s", "s"}, {"nw4.alloc.eval_s", "s"}, {"nw12.alloc.eval_s", "s"},
	{"alloc.full_us.p50", "us"}, {"alloc.delta_us.p50", "us"},
	{"nsga2.self_s", "s"}, {"nw4.nsga2.self_s", "s"}, {"nw12.nsga2.self_s", "s"},
	{"nsga2.gen_ms.p50", "ms"}, {"nsga2.gen_ms.p99", "ms"},
	{"nsga2.cache_hit_ratio", "ratio"}, {"nsga2.relations", "count"}, {"alloc.delta_share", "ratio"},
	{"core.finish_s", "s"}, {"core.new_s", "s"},
	// campaign-mix
	{"expt.cell_ms.p50", "ms"}, {"ring.cell_ms.p50", "ms"}, {"crossbar.cell_ms.p50", "ms"},
	{"sim.run_s", "s"}, {"sim.genomes", "count"},
	{"expt.assemble_ms", "ms"}, {"expt.artifact_kb", "KB"}, {"expt.instance_ms", "ms"},
	{"expt.cache_hit_ratio", "ratio"}, {"expt.delta_share", "ratio"},
	// serve-evaluate
	{"low.p50_ms", "ms"}, {"low.p99_ms", "ms"}, {"high.p50_ms", "ms"}, {"high.p99_ms", "ms"},
	{"max_rate", "1/s"},
	{"serve.local_us.p50", "us"}, {"alloc.eval_us.p50", "us"},
	{"serve.front_ms.p50", "ms"}, {"serve.front_ms.p99", "ms"},
	{"serve.sent", "count"}, {"serve.ok", "count"}, {"serve.refused", "count"}, {"serve.failed", "count"},
	{"gen.late_ms.p99", "ms"},
	// every workload
	{"trace.overhead_s", "s"}, {"fail_ratio", "ratio"},
}
