package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/serve"
)

// daemon is an in-process waserve on a loopback port, with one
// keep-alive client per connection the load generator may use.
type daemon struct {
	srv     *serve.Server
	hs      *http.Server
	done    chan struct{}
	url     string
	clients []*http.Client
}

// startDaemon boots serve.NewServer(cfg) behind an HTTP server on a
// loopback port with conns clients of one connection each.
func startDaemon(cfg serve.Config, conns int) (*daemon, error) {
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	for i := 0; i < conns; i++ {
		d.clients = append(d.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	return d, nil
}

// stop shuts the HTTP server down, waits for its goroutine, then
// drains the batching front.
func (d *daemon) stop() {
	for _, c := range d.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		d.hs.Close()
	}
	<-d.done
	d.srv.Close()
}

// post sends one request body and returns the status and response
// body.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// ---- serve-evaluate ----

// evalGenomes is the number of distinct request bodies.
const evalGenomes = 256

// serveEvalBench drives /v1/evaluate on a default-config daemon
// serving ring / paper / NW 8 requests.
type serveEvalBench struct {
	o      options
	d      *daemon
	in     *alloc.Instance
	reqs   []serve.EvaluateRequest
	bodies [][]byte
	want   [][]byte // serve.EvaluateLocal bytes for the same request
	// closedN is the request count of one measured (closed-loop) pass.
	closedN int
	// traced holds every shot of the traced run, for the counters.
	traced []shot
}

// shot is one request: when it was due, when the generator released
// it, when a connection sent it and when the response arrived.
type shot struct {
	due, released, sent, recv time.Time
	status                    int
	err                       error
	body                      int // index into bodies
	ok                        bool
}

func newServeEvaluate(o options) (bench, error) {
	b := &serveEvalBench{o: o, closedN: 3000}
	if o.quick {
		b.closedN = 200
	}
	var err error
	if b.in, err = expt.BuildCellInstance(expt.Cell{Backend: core.DefaultBackend, NW: 8}, expt.PaperWorkload()); err != nil {
		return nil, err
	}
	// RandomFit allocations of 1 to 3 wavelengths per communication,
	// all drawn from the workload seed.
	rng := rand.New(rand.NewSource(o.seed))
	seen := map[string]bool{}
	for tries := 0; len(b.reqs) < evalGenomes; tries++ {
		if tries > 100*evalGenomes {
			return nil, fmt.Errorf("only %d distinct RandomFit genomes in %d tries", len(b.reqs), tries)
		}
		counts := make([]int, b.in.Edges())
		for e := range counts {
			counts[e] = 1 + rng.Intn(3)
		}
		g, err := alloc.Assign(b.in, counts, alloc.RandomFit, rng)
		if err != nil || seen[g.Key()] {
			continue
		}
		seen[g.Key()] = true
		req := serve.EvaluateRequest{NW: 8, Genome: g.String()}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		want, err := serve.EvaluateLocal(req)
		if err != nil {
			return nil, err
		}
		if len(b.want) < o.corruptExpected {
			want = append([]byte("wrong "), want...)
		}
		b.reqs, b.bodies, b.want = append(b.reqs, req), append(b.bodies, body), append(b.want, want)
	}
	return b, nil
}

// setUp boots the daemon: serve.NewServer builds its instances and
// evaluator pools, then an HTTP server starts on a loopback port. The
// keep-alive connections open on the first request.
func (b *serveEvalBench) setUp() error {
	var err error
	b.d, err = startDaemon(serve.Config{}, runtime.NumCPU())
	return err
}

func (b *serveEvalBench) tearDown() {
	if b.d != nil {
		b.d.stop()
		b.d = nil
	}
}

// send performs one shot on client c.
func (b *serveEvalBench) send(c *http.Client, s *shot) {
	s.sent = time.Now()
	var body []byte
	s.status, body, s.err = post(c, b.d.url+"/v1/evaluate", b.bodies[s.body])
	s.recv = time.Now()
	s.ok = s.err == nil && s.status == http.StatusOK && bytes.Equal(body, b.want[s.body])
}

// closedLoop sends n requests, each client sending its next one when
// the previous one has returned.
func (b *serveEvalBench) closedLoop(n int) []shot {
	shots := make([]shot, n)
	var wg sync.WaitGroup
	for k, c := range b.d.clients {
		wg.Add(1)
		go func(k int, c *http.Client) {
			defer wg.Done()
			for i := k; i < n; i += len(b.d.clients) {
				shots[i].body = i % len(b.bodies)
				b.send(c, &shots[i])
			}
		}(k, c)
	}
	wg.Wait()
	return shots
}

// openLoop offers rate requests per second for d, dispatching each
// at its absolute due time t0 + i/rate (so a late wake-up never
// delays the requests after it) to whichever connection is free.
func (b *serveEvalBench) openLoop(rate float64, d time.Duration, first int) []shot {
	n := int(rate * d.Seconds())
	shots := make([]shot, n)
	jobs := make(chan int, n) // sized to the number of sends
	var wg sync.WaitGroup
	for _, c := range b.d.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := range jobs {
				b.send(c, &shots[i])
			}
		}(c)
	}
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now().Add(time.Millisecond)
	for i := range shots {
		due := t0.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		shots[i].due, shots[i].released, shots[i].body = due, time.Now(), (first+i)%len(b.bodies)
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return shots
}

func (b *serveEvalBench) pass(t *tally, tr *tracer) error {
	shots := b.closedLoop(b.closedN)
	b.count(t, shots)
	if tr != nil {
		for i := range shots {
			tr.add("serve.request", shots[i].sent, shots[i].recv, -1, i)
		}
		b.traced = append(b.traced, shots...)
	}
	return nil
}

// count tallies shots: refused, failed and wrong responses all fail.
func (b *serveEvalBench) count(t *tally, shots []shot) {
	for _, s := range shots {
		t.check(s.ok, "serve-evaluate: body %d: status %d, err %v, or response differs from EvaluateLocal", s.body, s.status, s.err)
	}
}

// latencyLimit is the p99 a rate must meet to count as sustained.
const latencyLimit = 25 * time.Millisecond

// fromDue lists each shot's latency from its due time, in ms.
func fromDue(shots []shot) []float64 {
	out := make([]float64, len(shots))
	for i, s := range shots {
		out[i] = ms(s.recv.Sub(s.due))
	}
	return out
}

// sustains reports whether every shot succeeded, p99 from-due latency
// met the limit, and the last tenth of the shots was not slower than
// the limit (the backlog did not grow).
func sustains(shots []shot) bool {
	for _, s := range shots {
		if !s.ok {
			return false
		}
	}
	lat := fromDue(shots)
	limit := ms(latencyLimit)
	return quantile(lat, 0.99) <= limit && median(lat[len(lat)*9/10:]) <= limit
}

// layers runs the open-loop phases at 200 and 600 requests per second,
// searches the highest sustained rate, and replays the bodies through
// serve.EvaluateLocal and alloc.Evaluator for the local costs.
func (b *serveEvalBench) layers(t *tally, tr *tracer, out map[string]metric) error {
	lowFor, highFor := 6*time.Second, 2500*time.Millisecond
	if b.o.quick {
		lowFor, highFor = time.Second, time.Second
	}
	low := b.openLoop(200, lowFor, 0)
	high := b.openLoop(600, highFor, len(low))
	b.count(t, low)
	b.count(t, high)
	phases := append(append([]shot(nil), low...), high...)
	base := len(b.traced)
	for i := range phases {
		tr.add("serve.open", phases[i].due, phases[i].recv, -1, base+i)
	}
	b.traced = append(b.traced, phases...)

	lowLat, highLat := fromDue(low), fromDue(high)
	out["low.p50_ms"] = metric{quantile(lowLat, 0.5), "ms"}
	out["low.p99_ms"] = metric{quantile(lowLat, 0.99), "ms"}
	out["high.p50_ms"] = metric{quantile(highLat, 0.5), "ms"}
	out["high.p99_ms"] = metric{quantile(highLat, 0.99), "ms"}
	var late []float64
	for _, s := range phases {
		late = append(late, ms(s.released.Sub(s.due)))
	}
	out["gen.late_ms.p99"] = metric{quantile(late, 0.99), "ms"}

	// The search probes rising rates until one misses the limit, then
	// bisects between the last sustained rate and the first missed one.
	best := 0.0
	if sustains(low) {
		best = 200
	}
	if sustains(high) {
		best = 600
		probe := 1500 * time.Millisecond
		if b.o.quick {
			probe = 300 * time.Millisecond
		}
		lo, hi := 600.0, 0.0
		for r := 900.0; hi == 0 && r <= 20000; r *= 1.5 {
			if sustains(b.openLoop(r, probe, 0)) {
				lo = r
			} else {
				hi = r
			}
		}
		for i := 0; i < 3 && hi > 0; i++ {
			mid := (lo + hi) / 2
			if sustains(b.openLoop(mid, probe, 0)) {
				lo = mid
			} else {
				hi = mid
			}
		}
		best = lo
	}
	out["max_rate"] = metric{best, "1/s"}

	// Local replays of the bodies the served requests carried.
	// EvaluateLocal builds the instance and an evaluator on every call,
	// which the daemon did once at boot; the same build, timed on its
	// own between the replays, is taken off each replay so that local
	// is what the daemon also does per request: decode, evaluate and
	// encode.
	ev, err := alloc.NewEvaluator(b.in)
	if err != nil {
		return err
	}
	var builds, evals []float64
	calls := make([]time.Duration, len(b.reqs))
	for i, req := range b.reqs {
		t0 := time.Now()
		got, err := serve.EvaluateLocal(req)
		calls[i] = time.Since(t0)
		tr.add("serve.local", t0, t0.Add(calls[i]), -1, i)
		t.check(err == nil && bytes.Equal(got, b.want[i]), "serve-evaluate: EvaluateLocal replay of body %d differs", i)

		t0 = time.Now()
		in, err := expt.BuildCellInstance(expt.Cell{Backend: core.DefaultBackend, NW: req.NW}, expt.PaperWorkload())
		if err == nil {
			_, err = alloc.NewEvaluator(in)
		}
		builds = append(builds, us(time.Since(t0)))
		tr.add("serve.build", t0, time.Now(), -1, i)
		if err != nil {
			return err
		}

		g, err := alloc.ParseGenome(req.Genome, b.in.Edges(), req.NW)
		if err != nil {
			return err
		}
		var res alloc.Eval
		t0 = time.Now()
		ev.EvaluateInto(&res, g)
		evals = append(evals, us(time.Since(t0)))
	}
	build := median(builds)
	local := make([]float64, len(calls))
	for i, c := range calls {
		local[i] = us(c) - build
	}
	var front []float64
	for _, s := range phases {
		front = append(front, ms(s.recv.Sub(s.sent))-local[s.body]/1e3)
	}
	out["serve.local_us.p50"] = metric{median(local), "us"}
	out["alloc.eval_us.p50"] = metric{median(evals), "us"}
	out["serve.front_ms.p50"] = metric{quantile(front, 0.5), "ms"}
	out["serve.front_ms.p99"] = metric{quantile(front, 0.99), "ms"}

	var sent, ok, refused, failed int
	for _, s := range b.traced {
		sent++
		switch {
		case s.ok:
			ok++
		case s.status == http.StatusTooManyRequests:
			refused++
		default:
			failed++
		}
	}
	out["serve.sent"] = metric{float64(sent), "count"}
	out["serve.ok"] = metric{float64(ok), "count"}
	out["serve.refused"] = metric{float64(refused), "count"}
	out["serve.failed"] = metric{float64(failed), "count"}
	return nil
}
