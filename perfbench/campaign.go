package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/sim"
)

// campaignBench runs one serial campaign and renders its JSON and CSV
// artifacts.
type campaignBench struct {
	o   options
	cfg expt.CampaignConfig
	// insts holds the last set-up's instance per (backend, workload,
	// NW), keyed by instKey; the traced run's sim replay evaluates on
	// them. instanceTime is what building them took.
	insts        map[string]*alloc.Instance
	instanceTime time.Duration
	// firstJSON and firstCSV are the first pass's artifact digests:
	// every later pass must reproduce them.
	firstJSON, firstCSV string
	// The traced pass's campaign, artifact size and per-backend cell
	// times (from the campaign's own cell-done events).
	last     *expt.Campaign
	bytesOut int
	cellMS   map[string][]float64
}

func instKey(backend, workload string, nw int) string {
	return fmt.Sprintf("%s/%s/%d", backend, workload, nw)
}

func newCampaign(o options) (bench, error) {
	cfg := expt.CampaignConfig{
		Backends:    core.Backends(),
		NWs:         []int{4, 8, 12},
		Replicates:  2,
		Pop:         80,
		Generations: 40,
		Seed:        o.seed,
		CellWorkers: 1,
	}
	if o.quick {
		cfg.NWs, cfg.Replicates, cfg.Pop, cfg.Generations = []int{4, 8}, 1, 24, 8
	}
	return &campaignBench{o: o, cfg: cfg}, nil
}

// setUp resolves the campaign's workloads, which the passes use, and
// builds one instance per distinct (backend, workload, NW) of its
// cells. RunCampaign has no way to take prebuilt instances, so each
// pass builds the same ones again: that part of setup_s is an in-pass
// share of the campaign's work, timed on its own.
func (b *campaignBench) setUp() error {
	chain, err := expt.NamedWorkload("chain64")
	if err != nil {
		return err
	}
	b.cfg.Workloads = []expt.Workload{expt.PaperWorkload(), chain}
	b.insts, b.instanceTime = map[string]*alloc.Instance{}, 0
	for _, c := range b.cfg.Cells() {
		key := instKey(c.Backend, c.Workload, c.NW)
		if b.insts[key] != nil {
			continue
		}
		wl := b.cfg.Workloads[0]
		if c.Workload == chain.Name {
			wl = chain
		}
		t0 := time.Now()
		in, err := expt.BuildCellInstance(c, wl)
		if err != nil {
			return err
		}
		b.instanceTime += time.Since(t0)
		b.insts[key] = in
	}
	return nil
}

func (b *campaignBench) tearDown() {}

func (b *campaignBench) pass(t *tally, tr *tracer) error {
	cfg := b.cfg
	if tr != nil {
		b.cellMS = map[string][]float64{}
		cfg.Progress = b.recordCells(tr)
	}
	c, err := expt.RunCampaign(cfg)
	if c == nil {
		return err
	}
	for _, cr := range c.Cells {
		t.check(cr.Err == nil && cr.SimChecked > 0 && cr.SimViolations == 0,
			"campaign-mix: cell %v: err=%v sim_checked=%d sim_violations=%d", cr.Cell, cr.Err, cr.SimChecked, cr.SimViolations)
	}
	var js, csv bytes.Buffer
	t0 := time.Now()
	if err := expt.WriteCampaignJSON(&js, c); err != nil {
		return err
	}
	if err := expt.WriteCampaignCSV(&csv, c); err != nil {
		return err
	}
	if tr != nil {
		tr.add("expt.assemble", t0, time.Now(), -1, 0)
		b.last, b.bytesOut = c, js.Len()+csv.Len()
	}
	b.checkArtifacts(t, js.Bytes(), csv.Bytes())
	return nil
}

// recordCells turns the campaign's cell-done events into spans and
// per-backend cell times.
func (b *campaignBench) recordCells(tr *tracer) func(expt.CellEvent) {
	return func(ev expt.CellEvent) {
		if !ev.Done {
			return
		}
		now := time.Now()
		tr.add("expt.cell", now.Add(-ev.Elapsed), now, -1, ev.Cell.Index)
		b.cellMS[ev.Cell.Backend] = append(b.cellMS[ev.Cell.Backend], ms(ev.Elapsed))
	}
}

// checkArtifacts pins the artifacts at the default seed and, at any
// seed, requires every pass to reproduce the first one's bytes.
func (b *campaignBench) checkArtifacts(t *tally, js, csv []byte) {
	dj, dc := sha(js), sha(csv)
	if b.firstJSON == "" {
		b.firstJSON, b.firstCSV = dj, dc
	}
	t.check(dj == b.firstJSON && dc == b.firstCSV, "campaign-mix: artifacts differ from the first pass's")
	if b.o.seed == defaultSeed && !b.o.quick {
		t.check(dj == campaignJSONDigest, "campaign-mix: JSON digest %s, want %s", dj, campaignJSONDigest)
		t.check(dc == campaignCSVDigest, "campaign-mix: CSV digest %s, want %s", dc, campaignCSVDigest)
	}
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// layers replays the sim cross-check over every cell's distinct
// projected-front genomes and runs the campaign once more with Stats on
// for the engine counters.
func (b *campaignBench) layers(t *tally, tr *tracer, out map[string]metric) error {
	genomes := 0
	for _, cr := range b.last.Cells {
		if cr.Result == nil {
			continue // a failed cell, already counted by the pass
		}
		in := b.insts[instKey(cr.Cell.Backend, cr.Cell.Workload, cr.Cell.NW)]
		seen := map[string]bool{}
		for _, front := range [][]core.Solution{cr.Result.FrontTimeEnergy, cr.Result.FrontTimeBER} {
			for _, sol := range front {
				if seen[sol.Genome.Key()] {
					continue
				}
				seen[sol.Genome.Key()] = true
				i := tr.begin("sim.run", -1, cr.Cell.Index)
				r, err := sim.Run(in, sol.Genome, sim.Options{})
				tr.end(i)
				t.check(err == nil && len(r.Violations) == 0, "campaign-mix: sim replay of cell %v: %v", cr.Cell, err)
			}
		}
		t.check(len(seen) == cr.SimChecked, "campaign-mix: cell %v: replayed %d genomes, the campaign checked %d", cr.Cell, len(seen), cr.SimChecked)
		genomes += len(seen)
	}

	cfg := b.cfg
	cfg.Stats = true
	cfg.Progress = b.recordCells(tr)
	c, err := expt.RunCampaign(cfg)
	if err != nil {
		return fmt.Errorf("stats pass: %w", err)
	}
	var evals, hits, kernel, delta int64
	for _, cr := range c.Cells {
		s := cr.Stats()
		evals += s.Evaluations
		hits += s.CacheHits
		kernel += s.FullEvals + s.GeneDeltaEvals + s.NearDeltaEvals + s.CrossDeltaEvals
		delta += s.GeneDeltaEvals + s.NearDeltaEvals + s.CrossDeltaEvals
	}

	var all []float64
	for _, xs := range b.cellMS {
		all = append(all, xs...)
	}
	out["expt.cell_ms.p50"] = metric{median(all), "ms"}
	out["ring.cell_ms.p50"] = metric{median(b.cellMS["ring"]), "ms"}
	out["crossbar.cell_ms.p50"] = metric{median(b.cellMS["crossbar"]), "ms"}
	out["sim.run_s"] = metric{tr.total("sim.run", allRuns).Seconds(), "s"}
	out["sim.genomes"] = metric{float64(genomes), "count"}
	out["expt.assemble_ms"] = metric{ms(tr.total("expt.assemble", allRuns)), "ms"}
	out["expt.artifact_kb"] = metric{float64(b.bytesOut) / 1024, "KB"}
	out["expt.instance_ms"] = metric{ms(b.instanceTime), "ms"}
	out["expt.cache_hit_ratio"] = metric{ratio(hits, evals), "ratio"}
	out["expt.delta_share"] = metric{ratio(delta, kernel), "ratio"}
	return nil
}

// Artifact digests of the full-size campaign at the default seed.
const (
	campaignJSONDigest = "d469c1c567d96b2f4bfae83392ed863b95ab7278f522c44f3dc699ae0dcfa11f"
	campaignCSVDigest  = "66f84eb9c43b7cb15ad7db1cfdd5c4c45606e7d42ed6b0f36ef35d14b5012fc3"
)
