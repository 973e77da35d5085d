package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sia/internal/predicate"
	serveapi "sia/internal/serve/api"
	serveclient "sia/internal/serve/client"
	"sia/internal/workload"
)

// Shape of the serve workload. The traffic is workload.GenerateServe's
// defaults (64 templates, Zipf skew 1.07, 90% recurrence, 4 tenants). Each
// replica caches 28 results, the per-replica bound of the committed serve
// experiment (experiments.ServeBench); the two replicas together hold 56,
// fewer than the template pool, so evictions and CEGIS misses happen
// throughout.
const (
	serveReplicas = 2
	serveCache    = 28
	serveStreamN  = 8000
	serveWarmup   = 2 * time.Second
	// serveRate is the offered rate of the fixed-rate phase, in
	// requests/s: about a fifth of the capacity the ladder measured on a
	// 2-vCPU Xeon VM (serve.max_rps 320–650, median about 500, over twenty
	// seeds with little CPU steal), so latency is taken well below
	// saturation. Each traced run records its own share under
	// fixed_rate_share_of_capacity.
	serveRate = 100.0
	// serveFixedShare is the share of a traced run the fixed-rate phase
	// takes; the ladder gets the rest. An untraced run spends all of its
	// time at the fixed rate (2000 samples at 20 s, so 20 lie beyond the
	// p99).
	serveFixedShare = 0.4
	serveLimit      = 500.0 // p99 latency limit in ms for the ladder
	serveBacklog    = 50.0  // ms the last quarter of a rung may run late before a growing backlog counts
	serveGrowth     = 50.0  // ms of lateness per second: a backlog growing faster means over 5% overload
	serveRung       = 1500 * time.Millisecond
	serveTimeout    = time.Minute
	// The ladder's rung k offers serveRate·serveStep^k requests/s, up to
	// rung serveTop (about 21× the fixed rate). The search climbs
	// serveStride rungs at a time, then bisects: capacity at rung 16 takes
	// at most six rungs, at rung 24 (twice that) seven, inside the
	// ladder's 12 s.
	serveStep   = 1.1
	serveStride = 8
	serveTop    = 32
)

// rungRate is the offered rate of ladder rung k; rung 0 is the fixed rate.
func rungRate(k int) float64 {
	return math.Round(serveRate * math.Pow(serveStep, float64(k)))
}

// climbLadder finds the highest rung of the ladder that passes. Rung 0
// (the fixed-rate phase) is known to pass. The run's time cannot hold every
// rung, so the search climbs stride rungs at a time until a rung fails,
// then bisects between the last rung that passed and the first that
// failed. try runs rung k and reports whether it passed; ran is false when
// the ladder's time is up. bracketed reports whether a failing rung lies
// directly above best, that is, whether best is the capacity and not a
// ceiling set by time or by the ladder's top.
func climbLadder(top, stride int, try func(k int) (passed, ran bool)) (best int, bracketed bool) {
	lo, hi := 0, -1
	for hi < 0 || hi-lo > 1 {
		k := lo + stride
		if hi >= 0 {
			k = (lo + hi) / 2
		}
		if k > top {
			if lo == top {
				return lo, false
			}
			k = top
		}
		passed, ran := try(k)
		if !ran {
			return lo, false
		}
		if passed {
			lo = k
		} else {
			hi = k
		}
	}
	return lo, true
}

// replica is one siad child process.
type replica struct {
	addr string
	cmd  *exec.Cmd
	done chan struct{}
}

// freePort asks the kernel for an unused localhost port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startCluster launches the sharded siad replicas and waits until every
// one answers /healthz.
func startCluster(siad, logDir string) ([]*replica, error) {
	var addrs []string
	for i := 0; i < serveReplicas; i++ {
		a, err := freePort()
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, a)
	}
	var reps []*replica
	stop := func() { stopCluster(reps) }
	for i, a := range addrs {
		logf, err := os.Create(filepath.Join(logDir, fmt.Sprintf("siad-%d.log", i)))
		if err != nil {
			stop()
			return nil, err
		}
		cmd := exec.Command(siad, "-addr", a, "-self", a, "-peers", strings.Join(addrs, ","),
			"-cache", strconv.Itoa(serveCache), "-batch-tick", "1ms", "-drain-timeout", "1s")
		cmd.Stdout, cmd.Stderr = logf, logf
		if err := cmd.Start(); err != nil {
			logf.Close()
			stop()
			return nil, fmt.Errorf("start siad: %w", err)
		}
		r := &replica{addr: a, cmd: cmd, done: make(chan struct{})}
		go func() {
			_ = cmd.Wait() // the exit status of a killed replica is expected
			logf.Close()
			close(r.done)
		}()
		reps = append(reps, r)
	}
	deadline := time.Now().Add(20 * time.Second)
	for _, r := range reps {
		for {
			resp, err := http.Get("http://" + r.addr + serveapi.PathHealthz)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			select {
			case <-r.done:
				stop()
				return nil, fmt.Errorf("siad %s exited during start-up (see %s)", r.addr, logDir)
			default:
			}
			if time.Now().After(deadline) {
				stop()
				return nil, fmt.Errorf("siad %s not healthy after 20s", r.addr)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return reps, nil
}

// stopCluster terminates every replica and waits for each to exit.
func stopCluster(reps []*replica) {
	for _, r := range reps {
		_ = r.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	}
	for _, r := range reps {
		select {
		case <-r.done:
		case <-time.After(5 * time.Second):
			_ = r.cmd.Process.Kill()
			<-r.done
		}
	}
}

// wireRequest converts a stream element to its wire form, with the
// schema restricted to the columns it mentions and the CEGIS run bounded
// by synthBudget, so a miss holds one of the few connections for
// milliseconds, not seconds.
func wireRequest(sr workload.ServeRequest, schema *predicate.Schema) serveapi.SynthesizeRequest {
	seen := map[string]bool{}
	var cols []serveapi.SchemaColumn
	for _, name := range append(predicate.Columns(sr.Query.Pred), sr.Cols...) {
		if seen[name] {
			continue
		}
		seen[name] = true
		if col, ok := schema.Lookup(name); ok {
			cols = append(cols, serveapi.SchemaColumn{Name: col.Name, Type: serveapi.FormatType(col.Type), Nullable: !col.NotNull})
		}
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i].Name < cols[j].Name })
	return serveapi.SynthesizeRequest{
		Predicate: sr.Query.Pred.String(),
		Cols:      sr.Cols,
		Schema:    cols,
		TimeoutMS: 30000,
		Options: &serveapi.RequestOptions{
			MaxIterations: 6, InitialTrue: 20, InitialFalse: 20, SamplesPerIteration: 10,
			SolverTimeoutMS: synthBudget.Milliseconds(), TimeoutMS: synthBudget.Milliseconds(),
		},
	}
}

// serveReq is one request of the stream with its tenant.
type serveReq struct {
	body   serveapi.SynthesizeRequest
	tenant string
	pred   predicate.Predicate
}

// outcome is one request's measured result.
type outcome struct {
	due     time.Duration // offset into the phase the request was due at
	latency time.Duration // from due time to completion
	late    time.Duration // send time minus due time
	err     error
	resp    *serveapi.SynthesizeResponse
	req     *serveReq
	traced  bool
}

// generator drives the cluster open-loop: requests are due at Poisson
// arrival times and sent on at most nproc connections, round-robin over
// the replicas. A request waiting for a free connection keeps its due time.
type generator struct {
	clients map[string]*serveclient.Client // by ingress+tenant
	urls    []string
	conns   int
	reqs    []serveReq
	next    int
	rng     *rand.Rand
	tr      *tracer
}

func newGenerator(reps []*replica, reqs []serveReq, seed int64, tr *tracer) *generator {
	conns := runtime.NumCPU()
	hc := &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	g := &generator{clients: map[string]*serveclient.Client{}, conns: conns, reqs: reqs, rng: rand.New(rand.NewSource(seed)), tr: tr}
	for _, r := range reps {
		g.urls = append(g.urls, "http://"+r.addr)
	}
	for _, u := range g.urls {
		for _, q := range reqs {
			k := u + "|" + q.tenant
			if g.clients[k] == nil {
				g.clients[k] = serveclient.New(u, serveclient.WithRetries(0), serveclient.WithTenant(q.tenant), serveclient.WithHTTPClient(hc))
			}
		}
	}
	return g
}

// phase offers rate requests/s for d and returns every outcome and the
// phase's wall time (until the last reply). Arrivals are Poisson
// conditioned on their count: exactly rate×d requests at uniformly random
// due times, so the offered load itself does not vary from run to run.
// With traced set, every other request records spans. With abandon set,
// the phase stops sending once a request waits that long for a connection
// (the backlog is beyond any limit), so an overloaded rung of the ladder
// does not spend the run's time draining; abandoned reports that it did.
func (g *generator) phase(rate float64, d time.Duration, traced bool, abandon time.Duration) (outs []outcome, wall time.Duration, abandoned bool) {
	var mu sync.Mutex
	sem := make(chan struct{}, g.conns)
	var wg sync.WaitGroup
	dues := make([]time.Duration, int(rate*d.Seconds()))
	for i := range dues {
		dues[i] = time.Duration(g.rng.Int63n(int64(d)))
	}
	slices.Sort(dues)
	start := time.Now()
	for _, due := range dues {
		dueAt := start.Add(due)
		time.Sleep(time.Until(dueAt))
		sem <- struct{}{}
		if abandon > 0 && time.Since(dueAt) > abandon {
			<-sem
			abandoned = true
			break
		}
		req := &g.reqs[g.next%len(g.reqs)]
		url := g.urls[g.next%len(g.urls)]
		ot := offTracer
		if traced && g.next%2 == 0 {
			ot = g.tr
		}
		g.next++
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			op := ot.newOp()
			root := ot.begin(op, nil, "bench.serve")
			sent := time.Now()
			ref := ot.begin(op, root, "serve.request")
			ctx, cancel := context.WithTimeout(context.Background(), serveTimeout)
			resp, err := g.clients[url+"|"+req.tenant].Synthesize(ctx, req.body)
			cancel()
			ot.end(ref)
			ot.end(root)
			o := outcome{due: dueAt.Sub(start), latency: time.Since(dueAt), late: sent.Sub(dueAt), err: err, resp: resp, req: req, traced: ot.on}
			mu.Lock()
			outs = append(outs, o)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return outs, time.Since(start), abandoned
}

// latencies returns the outcomes' latencies in ms, an error counting as
// the request timeout (it misses any limit), and the error count.
func latencies(outs []outcome) ([]float64, int) {
	var l []float64
	errs := 0
	for _, o := range outs {
		if o.err != nil {
			errs++
			l = append(l, ms(serveTimeout))
			continue
		}
		l = append(l, ms(o.latency))
	}
	return l, errs
}

// climb runs the ladder until end and records serve.max_rps, the
// completion rate of the highest rung that meets the p99 limit without a
// growing backlog, in res. fixedRPS is the completion rate of the
// fixed-rate phase, rung 0. It returns every ladder request's outcome.
func (g *generator) climb(cfg config, res *result, fixedRPS float64, rung time.Duration, end time.Time) []outcome {
	var outs []outcome
	rps := map[int]float64{0: fixedRPS}
	var ladder []map[string]any
	best, bracketed := climbLadder(serveTop, serveStride, func(k int) (bool, bool) {
		if time.Now().Add(rung).After(end) {
			return false, false
		}
		ro, wall, abandoned := g.phase(rungRate(k), rung, false, time.Duration(serveLimit*float64(time.Millisecond)))
		j := judgeRung(ro, rung)
		j.ok = j.ok && !abandoned
		ladder = append(ladder, map[string]any{"rung": k, "offered": rungRate(k), "requests": len(ro), "errors": j.errs,
			"p99_ms": j.p99, "late_trend_ms_per_s": j.trend, "late_end_ms": j.lateEnd, "abandoned": abandoned, "ok": j.ok})
		outs = append(outs, ro...)
		rps[k] = float64(len(ro)-j.errs) / wall.Seconds()
		return j.ok, true
	})
	switch {
	case bracketed:
		res.Info["ladder_end"] = "failed rung"
	case best == serveTop:
		res.Info["ladder_end"] = "top rung passed"
	default:
		res.Info["ladder_end"] = "time"
	}
	// A ladder that stops without a failing rung above its best measured a
	// ceiling, not the capacity; at toy size the run is too short to
	// bracket it, so there it is only recorded.
	if !bracketed && !cfg.Toy {
		res.Attempted++
		res.fail("serve ladder stopped at rung %d (%.0f/s) without a failing rung above it (%s)", best, rungRate(best), res.Info["ladder_end"])
	}
	res.Metrics["serve.max_rps"] = rps[best]
	res.Info["fixed_rate_share_of_capacity"] = ratio(serveRate, rps[best])
	res.Info["latency_limit_ms"] = serveLimit
	res.Info["ladder_rungs"] = fmt.Sprintf("%.0f·%.2f^k req/s, k = 0..%d, %v each; climb %d rungs at a time, then bisect", serveRate, serveStep, serveTop, rung, serveStride)
	res.Info["ladder"] = ladder
	res.Info["ladder_best_rung"] = best
	return outs
}

// rungVerdict is one phase judged as a rung of the ladder.
type rungVerdict struct {
	ok   bool
	errs int
	p99  float64
	// trend is how fast the generator falls behind (ms of lateness per
	// second of the phase), lateEnd its median lateness in the last
	// quarter, in ms.
	trend, lateEnd float64
}

// judgeRung decides whether a phase of length d passed: its p99 (errors
// counting as the request timeout) is within the limit and the backlog
// does not grow. A growing backlog shows as lateness that keeps rising
// through the phase and is still high at its end. The trend is the
// Theil–Sen slope of lateness against due time, the median of the
// pairwise slopes, so a stall behind a few slow misses that drains again
// does not move it.
func judgeRung(outs []outcome, d time.Duration) rungVerdict {
	l, e := latencies(outs)
	step := max(1, len(outs)/300)
	var slopes, end []float64
	for i := 0; i < len(outs); i += step {
		for j := i + step; j < len(outs); j += step {
			if dx := (outs[j].due - outs[i].due).Seconds(); dx != 0 {
				slopes = append(slopes, ms(outs[j].late-outs[i].late)/dx)
			}
		}
	}
	for _, o := range outs {
		if o.due >= d*3/4 {
			end = append(end, ms(o.late))
		}
	}
	v := rungVerdict{errs: e, p99: percentile(l, 0.99), trend: median(slopes), lateEnd: median(end)}
	growing := v.trend > serveGrowth && v.lateEnd > serveBacklog
	v.ok = v.p99 <= serveLimit && !growing
	return v
}

// clusterStats is the sum over replicas of the counters siad exports on
// /v1/stats and /metrics.
type clusterStats map[string]float64

func scrape(reps []*replica) (clusterStats, error) {
	out := clusterStats{}
	for _, r := range reps {
		c := serveclient.New("http://" + r.addr)
		st, err := c.Stats(context.Background())
		if err != nil {
			return nil, err
		}
		out["hits"] += float64(st.Cache.Hits)
		out["misses"] += float64(st.Cache.Misses)
		out["coalesced"] += float64(st.Cache.Coalesced)
		out["evictions"] += float64(st.Cache.Evictions)
		out["forwards"] += float64(st.Serve.Forwards)
		out["local_hits"] += float64(st.Serve.LocalHits)
		out["batched_requests"] += float64(st.Serve.BatchedRequests)
		out["shed"] += float64(st.Serve.ShedTenant + st.Serve.ShedCapacity)
		if err := scrapeMetrics("http://"+r.addr+serveapi.PathMetrics, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scrapeMetrics adds the Prometheus samples the benchmark reads to out,
// keyed by name plus the one label that distinguishes them.
func scrapeMetrics(url string, out clusterStats) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		name, labels, _ := strings.Cut(key, "{")
		switch name {
		case "sia_http_request_seconds_sum", "sia_http_request_seconds_count":
			if !strings.Contains(labels, `path="`+serveapi.PathSynthesize+`"`) {
				continue
			}
		case "sia_smt_query_seconds_sum":
			kind := labels[strings.Index(labels, `kind="`)+6:]
			name += "/" + kind[:strings.IndexByte(kind, '"')]
		case "sia_smt_sat_queries_total", "sia_smt_model_queries_total", "sia_smt_eliminations_total":
		default:
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return fmt.Errorf("metrics %s: %q: %w", url, line, err)
		}
		out[name] += v
	}
	return sc.Err()
}

func (a clusterStats) sub(b clusterStats) clusterStats {
	out := clusterStats{}
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

// serveState is the serve workload's set-up: the wire-form stream and a
// running, healthy cluster.
type serveState struct {
	reqs []serveReq
	reps []*replica
}

func setupServe(cfg config) (*serveState, error) {
	n := serveStreamN
	if cfg.Toy {
		n = 300
	}
	schema := workload.ServeSchema()
	st := &serveState{}
	for _, sr := range workload.GenerateServe(workload.ServeConfig{
		N: n, Seed: cfg.Seed,
	}) {
		st.reqs = append(st.reqs, serveReq{body: wireRequest(sr, schema), tenant: sr.Tenant, pred: sr.Query.Pred})
	}
	logDir := filepath.Join(cfg.OutDir, "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	reps, err := startCluster(cfg.Siad, logDir)
	if err != nil {
		return nil, err
	}
	st.reps = reps
	return st, nil
}

// runServe drives two sharded siad replicas open-loop: a warm-up, a
// fixed-rate phase for the latency metrics, then, in a traced run, the
// rate ladder for serve.max_rps. Every returned predicate is checked on a
// data sample after the run.
func runServe(cfg config, tr *tracer) (*result, error) {
	if cfg.Siad == "" {
		return nil, errors.New("serve needs -siad")
	}
	st, setupS, err := timeSetup(setupReps, func() (*serveState, func(), error) {
		st, err := setupServe(cfg)
		if err != nil {
			return nil, nil, err
		}
		return st, func() { stopCluster(st.reps) }, nil
	})
	if err != nil {
		return nil, err
	}
	defer stopCluster(st.reps)
	res := newResult()
	res.Metrics["setup_s"] = setupS

	// The end-to-end latencies come from untraced runs, which spend the
	// whole run at the fixed rate. A traced run gives three fifths of it
	// to the ladder, whose capacity is a per-layer metric.
	total := time.Duration(cfg.Seconds * float64(time.Second))
	fixed, warm := total, serveWarmup
	if cfg.Trace {
		fixed = time.Duration(float64(total) * serveFixedShare)
	}
	if cfg.Toy {
		warm = total / 4
	}
	g := newGenerator(st.reps, st.reqs, cfg.Seed, tr)
	g.phase(serveRate, warm, false, 0)

	before, err := scrape(st.reps)
	if err != nil {
		return nil, err
	}
	outs, fixedWall, _ := g.phase(serveRate, fixed, cfg.Trace, 0)
	after, err := scrape(st.reps)
	if err != nil {
		return nil, err
	}
	lat, errs := latencies(outs)
	res.Attempted += len(outs)
	for _, o := range outs {
		if o.err != nil {
			res.fail("fixed-rate request: %v", o.err)
		}
	}
	// Validity is counted once per distinct request (its first reply), not
	// per request: the Zipf skew would otherwise let the seed's few most
	// popular templates decide it.
	validByKey := map[string]bool{}
	for _, o := range outs {
		key := o.req.body.Predicate + "|" + strings.Join(o.req.body.Cols, ",")
		if _, seen := validByKey[key]; !seen && o.err == nil && o.resp != nil {
			validByKey[key] = o.resp.Valid
		}
	}
	valid := 0
	for _, v := range validByKey {
		if v {
			valid++
		}
	}
	res.Info["distinct_requests"] = len(validByKey)
	opLatencies(res, lat)
	res.Metrics["valid_frac"] = ratio(float64(valid), float64(len(validByKey)))
	res.Metrics["serve.p99_ms"] = percentile(lat, 0.99)
	res.Info["offered_rate"] = serveRate
	res.Info["connections"] = g.conns
	res.Info["replicas"], res.Info["cache_per_replica"] = serveReplicas, serveCache
	res.Info["traffic"] = "workload.GenerateServe defaults"
	res.Info["fixed_phase_errors"] = errs
	var late []float64
	for _, o := range outs {
		late = append(late, ms(o.late))
	}
	// The fixed rate is rung 0 of the ladder and must pass as one.
	fixedRung := judgeRung(outs, fixed)
	if !fixedRung.ok {
		res.fail("the fixed rate %.0f/s misses its own limit (p99 %.1f ms, lateness growing %.1f ms/s to %.1f ms)",
			serveRate, fixedRung.p99, fixedRung.trend, fixedRung.lateEnd)
	}
	if cfg.Trace {
		rung := serveRung
		if cfg.Toy {
			rung = total / 8
		}
		fixedRPS := float64(len(outs)-errs) / fixedWall.Seconds()
		outs = append(outs, g.climb(cfg, res, fixedRPS, rung, time.Now().Add(total-fixed))...)
	}

	// Validity of every distinct returned predicate, outside the timing.
	sample, err := newValiditySample(cfg.Seed, validityRows)
	if err != nil {
		return nil, err
	}
	checked := map[string]bool{}
	schema := workload.ServeSchema()
	for _, o := range outs {
		if o.err != nil || o.resp == nil || o.resp.Predicate == "" || !o.resp.Valid {
			continue
		}
		key := o.req.body.Predicate + "|" + o.resp.Predicate
		if checked[key] {
			continue
		}
		checked[key] = true
		p1, err := predicate.Parse(o.resp.Predicate, schema)
		if err != nil {
			res.Attempted++
			res.fail("unparsable synthesized predicate %q: %v", o.resp.Predicate, err)
			continue
		}
		if err := sample.check(o.req.pred, p1); err != nil {
			res.Attempted++
			res.fail("%v", err)
		}
	}
	res.Info["distinct_results_checked"] = len(checked)

	if cfg.Trace {
		d := after.sub(before)
		lookups := d["hits"] + d["misses"] + d["coalesced"]
		res.Metrics["cache.hit_ratio"] = ratio(d["hits"]+d["coalesced"], lookups)
		res.Metrics["cache.evictions"] = d["evictions"]
		res.Metrics["cache.coalesced"] = d["coalesced"]
		res.Metrics["serve.server_ms"] = 1e3 * ratio(d["sia_http_request_seconds_sum"], d["sia_http_request_seconds_count"])
		res.Metrics["serve.generator_late_ms"] = mean(late)
		for _, k := range []string{"forwards", "local_hits", "batched_requests", "shed"} {
			res.Metrics["serve."+k] = d[k]
		}
		nreq := float64(max(len(lat), 1))
		res.Metrics["smt.sat_queries"] = d["sia_smt_sat_queries_total"] / nreq
		res.Metrics["smt.model_queries"] = d["sia_smt_model_queries_total"] / nreq
		res.Metrics["smt.eliminations"] = d["sia_smt_eliminations_total"] / nreq
		for _, kind := range []string{"sat", "model", "qe", "enumerate", "elimination"} {
			res.Metrics["smt."+kind+"_s"] = d["sia_smt_query_seconds_sum/"+kind] / nreq
		}
		var on, off []float64
		for _, o := range outs[:len(lat)] {
			if o.err == nil && o.traced {
				on = append(on, ms(o.latency))
			} else if o.err == nil {
				off = append(off, ms(o.latency))
			}
		}
		self := tr.selfByLayer("bench.serve")
		res.Metrics["self.serve_ms"] = ms(self["serve"]) / float64(max(len(on), 1))
		res.Metrics["trace.accounted_frac"] = accountedFrac(tr, "bench.serve")
		res.Metrics["trace.overhead_ms"] = median(on) - median(off)
	}
	return res, nil
}
