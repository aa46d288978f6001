package main

import (
	"bytes"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/nsga2"
)

// suiteBench runs expt.Run at the paper's settings with serial
// evaluation, then renders the suite CSV.
type suiteBench struct {
	o   options
	cfg expt.Config
	// insts holds the last set-up's instance per comb size; the
	// traced run's evaluator replay runs on them.
	insts map[int]*alloc.Instance
	// first is the CSV digest of the run's first pass: every later
	// pass must reproduce it.
	first string
	// stats holds the traced pass's engine counters per comb size.
	stats map[int]nsga2.Stats
}

func newSuite(o options) (bench, error) {
	cfg := expt.DefaultConfig()
	cfg.Seed = o.seed
	if o.quick {
		cfg.NWs, cfg.Pop, cfg.Generations = []int{4, 8}, 40, 30
	}
	return &suiteBench{o: o, cfg: cfg}, nil
}

// setUp builds the instance of every comb size. expt.Run has no way to
// take prebuilt instances, so each pass builds the same ones again
// inside its core.New calls: setup_s is that in-pass share of the
// suite's work, timed on its own.
func (b *suiteBench) setUp() error {
	b.insts = map[int]*alloc.Instance{}
	for _, nw := range b.cfg.NWs {
		in, err := expt.BuildCellInstance(expt.Cell{NW: nw, Backend: core.DefaultBackend}, expt.PaperWorkload())
		if err != nil {
			return err
		}
		b.insts[nw] = in
	}
	return nil
}

func (b *suiteBench) tearDown() {}

// gaConfig is the engine configuration expt.RunNW gives comb size nw.
func (b *suiteBench) gaConfig(nw int) nsga2.Config {
	seed := b.cfg.Seed
	if seed == 0 {
		seed = expt.DefaultConfig().Seed // expt's own default for seed 0
	}
	return nsga2.Config{PopSize: b.cfg.Pop, Generations: b.cfg.Generations, Seed: seed + int64(nw)*1000}
}

func (b *suiteBench) pass(t *tally, tr *tracer) error {
	var s *expt.Suite
	if tr == nil {
		var err error
		if s, err = expt.Run(b.cfg); err != nil {
			return err
		}
	} else {
		// The traced pass steps the same exploration expt.Run performs
		// (core.Problem.Optimize is a loop over an Explorer), timing
		// each call into the core and engine layers.
		s = &expt.Suite{Cfg: b.cfg, Results: map[int]*core.Result{}}
		b.stats = map[int]nsga2.Stats{}
		for _, nw := range b.cfg.NWs {
			i := tr.begin("core.new", -1, nw)
			p, err := core.New(core.Config{NW: nw, GA: b.gaConfig(nw)})
			tr.end(i)
			if err != nil {
				return err
			}
			i = tr.begin("core.explorer", -1, nw)
			x, err := p.NewExplorer()
			tr.end(i)
			if err != nil {
				return err
			}
			for !x.Done() {
				i = tr.begin("nsga2.step", -1, nw)
				x.Step()
				tr.end(i)
			}
			b.stats[nw] = x.Stats()
			i = tr.begin("core.finish", -1, nw)
			res, err := x.Finish()
			tr.end(i)
			if err != nil {
				return err
			}
			s.Results[nw] = res
		}
	}
	var csv bytes.Buffer
	if err := expt.WriteSuiteCSV(&csv, s); err != nil {
		return err
	}
	b.check(t, s, csv.Bytes())
	return nil
}

// check pins the CSV at the default seed and, at any seed, the paper's
// shape anchors: best time falls as NW grows, nothing beats the 20 k-cc
// floor, and the minimum-energy solution reserves one wavelength per
// communication.
func (b *suiteBench) check(t *tally, s *expt.Suite, csv []byte) {
	d := sha(csv)
	if b.first == "" {
		b.first = d
	}
	t.check(d == b.first, "paper-suite: CSV digest %s differs from the first pass's %s", d, b.first)
	if b.o.seed == defaultSeed && !b.o.quick {
		t.check(d == suiteCSVDigest, "paper-suite: CSV digest %s, want %s", d, suiteCSVDigest)
	}
	nws := s.NWs()
	for i, nw := range nws {
		res := s.Results[nw]
		best := res.BestTimeKCC()
		t.check(best >= 20, "paper-suite: NW=%d best time %v beats the 20 k-cc floor", nw, best)
		if i > 0 {
			prev := s.Results[nws[i-1]].BestTimeKCC()
			t.check(best < prev, "paper-suite: best time does not fall from NW=%d (%v) to NW=%d (%v)", nws[i-1], prev, nw, best)
		}
		if b.o.quick {
			continue // a short GA may stop one mutation short of all-ones
		}
		sol, ok := res.MinEnergySolution()
		allOnes := ok
		for _, c := range sol.Counts {
			allOnes = allOnes && c == 1
		}
		t.check(allOnes, "paper-suite: NW=%d min-energy allocation %v is not all-ones", nw, sol.Counts)
	}
}

// layers replays each comb size's exploration on a fresh problem
// through nsga2.NewEngine with a timed nsga2.Problem, which splits
// every generation into evaluator time and engine self time.
func (b *suiteBench) layers(t *tally, tr *tracer, out map[string]metric) error {
	for _, nw := range b.cfg.NWs {
		p, err := core.New(core.Config{NW: nw, Instance: b.insts[nw], GA: b.gaConfig(nw)})
		if err != nil {
			return err
		}
		ga := b.gaConfig(nw)
		ga.ArchiveAll = true // as core's explorer runs it
		tp := &timedProblem{p: p, tr: tr, run: nw}
		tp.parent = tr.begin("nsga2.init", -1, nw)
		eng, err := nsga2.NewEngine(tp, ga)
		tr.end(tp.parent)
		if err != nil {
			return err
		}
		for eng.Generation() < ga.Generations {
			tp.parent = tr.begin("nsga2.engine", -1, nw)
			eng.Step()
			tr.end(tp.parent)
		}
		got, want := eng.Stats(), b.stats[nw]
		t.check(got.Evaluations == want.Evaluations && got.CacheHits == want.CacheHits,
			"paper-suite: NW=%d replay did %d evaluations (%d hits), the traced pass %d (%d)",
			nw, got.Evaluations, got.CacheHits, want.Evaluations, want.CacheHits)
	}

	evalTime := func(run int) float64 {
		return (tr.total("alloc.eval.full", run) + tr.total("alloc.eval.delta", run)).Seconds()
	}
	out["alloc.eval_s"] = metric{evalTime(allRuns), "s"}
	out["nw4.alloc.eval_s"] = metric{evalTime(4), "s"}
	out["nw12.alloc.eval_s"] = metric{evalTime(12), "s"}
	out["alloc.full_us.p50"] = metric{median(durations(tr.durationsOf("alloc.eval.full"), us)), "us"}
	out["alloc.delta_us.p50"] = metric{median(durations(tr.durationsOf("alloc.eval.delta"), us)), "us"}
	engineSelf := func(run int) float64 {
		return (tr.self("nsga2.init", run) + tr.self("nsga2.engine", run)).Seconds()
	}
	out["nsga2.self_s"] = metric{engineSelf(allRuns), "s"}
	out["nw4.nsga2.self_s"] = metric{engineSelf(4), "s"}
	out["nw12.nsga2.self_s"] = metric{engineSelf(12), "s"}
	// Generation times pool the traced pass's steps with the replay's,
	// so p99 has more than ten samples beyond it.
	gens := durations(append(tr.durationsOf("nsga2.step"), tr.durationsOf("nsga2.engine")...), ms)
	out["nsga2.gen_ms.p50"] = metric{quantile(gens, 0.5), "ms"}
	out["nsga2.gen_ms.p99"] = metric{quantile(gens, 0.99), "ms"}
	var evals, hits, rels, kernel, delta int64
	for _, s := range b.stats {
		evals += s.Evaluations
		hits += s.CacheHits
		rels += s.RelationsCompared
		kernel += s.Eval.Full + s.Eval.GeneDelta + s.Eval.NearDelta + s.Eval.CrossDelta
		delta += s.Eval.GeneDelta + s.Eval.NearDelta + s.Eval.CrossDelta
	}
	out["nsga2.cache_hit_ratio"] = metric{ratio(hits, evals), "ratio"}
	out["nsga2.relations"] = metric{float64(rels), "count"}
	out["alloc.delta_share"] = metric{ratio(delta, kernel), "ratio"}
	out["core.finish_s"] = metric{tr.total("core.finish", allRuns).Seconds(), "s"}
	out["core.new_s"] = metric{tr.total("core.new", allRuns).Seconds(), "s"}
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// timedProblem forwards core.Problem's public evaluation methods and
// records one span per call under the engine span in parent. It
// implements the same optional engine interfaces as core.Problem
// (delta, write-into and stats) but not PerWorkerProblem: the
// benchmark evaluates serially.
type timedProblem struct {
	p      *core.Problem
	tr     *tracer
	parent int
	run    int
}

func (w *timedProblem) GenomeLen() int     { return w.p.GenomeLen() }
func (w *timedProblem) NumObjectives() int { return w.p.NumObjectives() }

func (w *timedProblem) Evaluate(genome []byte) ([]float64, float64) {
	i := w.tr.begin("alloc.eval.full", w.parent, w.run)
	objs, v := w.p.Evaluate(genome)
	w.tr.end(i)
	return objs, v
}

func (w *timedProblem) EvaluateDelta(genome, parent1, parent2 []byte, gene int) ([]float64, float64) {
	i := w.tr.begin("alloc.eval.delta", w.parent, w.run)
	objs, v := w.p.EvaluateDelta(genome, parent1, parent2, gene)
	w.tr.end(i)
	return objs, v
}

func (w *timedProblem) EvaluateObjsInto(dst []float64, genome []byte) float64 {
	i := w.tr.begin("alloc.eval.full", w.parent, w.run)
	v := w.p.EvaluateObjsInto(dst, genome)
	w.tr.end(i)
	return v
}

func (w *timedProblem) EvaluateDeltaObjsInto(dst []float64, genome, parent1, parent2 []byte, gene int) float64 {
	i := w.tr.begin("alloc.eval.delta", w.parent, w.run)
	v := w.p.EvaluateDeltaObjsInto(dst, genome, parent1, parent2, gene)
	w.tr.end(i)
	return v
}

func (w *timedProblem) EvalStats() nsga2.EvalStats { return w.p.EvalStats() }

var _ nsga2.DeltaIntoProblem = (*timedProblem)(nil)
var _ nsga2.IntoProblem = (*timedProblem)(nil)
var _ nsga2.StatsProblem = (*timedProblem)(nil)

// suiteCSVDigest is the sha256 of expt.WriteSuiteCSV for
// expt.DefaultConfig() at the default seed.
const suiteCSVDigest = "c5eb4d42c71ad80c30e6b3c2093cb11e5b72d660b658a173f5faf56003429ea0"
