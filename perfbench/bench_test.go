package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks
// the benchmark's output against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestWorkloadsReportEveryMetric runs every workload at reduced size,
// untraced and traced, and requires its output checks to pass and its
// metrics to be exactly the ones BENCHMARK.json names, with their units.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); !slices.Equal(got, names) {
		t.Fatalf("workloads %v, BENCHMARK.json names %v", got, names)
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			for _, m := range bf.EndToEnd {
				want[m.Name] = m.Unit
			}
			if traced {
				want = map[string]string{}
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			res, err := run(options{workload: name, seed: defaultSeed, seconds: 1, trace: traced, quick: true})
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (traced %v): correct %v, %d of %d failed", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				if !ok || got.Unit != unit {
					t.Errorf("%s (traced %v): metric %s = %+v (present %v), want unit %s", name, traced, m, got, ok, unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for m, v := range res.Metrics {
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, v.Value)
				}
			}
		}
	}
}

// TestWrongOutputCounted shows a wrong expected body fails the run
// instead of passing.
func TestWrongOutputCounted(t *testing.T) {
	res, err := run(options{workload: "serve-evaluate", seed: 7, seconds: 1, quick: true, corruptExpected: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("corrupted expectations gave correct %v with %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
}
