package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mesa/internal/experiments"
	"mesa/internal/genkern"
	"mesa/internal/isa"
	"mesa/internal/kernels"
	"mesa/internal/obs"
	"mesa/internal/server"
)

// service is an in-process mesad: server.New with the default config behind
// a loopback listener, plus a keep-alive client.
type service struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	done   chan error
}

func startService(clients int) (*service, error) {
	srv := server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{
			// Far above any request's latency; a hung server fails the run
			// instead of stalling it.
			Timeout:   time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients},
		},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	resp, err := s.client.Get(s.base + "/healthz")
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("healthz: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return s, nil
}

// stop drains the server, shuts the listener down and waits for Serve to
// return.
func (s *service) stop() {
	s.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
	s.client.CloseIdleConnections()
}

// post sends one simulate request and returns the status and body.
func (s *service) post(body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.base+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// scrape reads the JSON /metrics report as section/name -> value.
func (s *service) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var rep struct {
		Sections []obs.Section `json:"sections"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	out := map[string]float64{}
	for _, sec := range rep.Sections {
		for _, m := range sec.Metrics {
			out[sec.Name+"/"+m.Name] = m.Value
		}
	}
	return out, nil
}

// stageMeansUS turns two /metrics scrapes into the mean wall time per
// request of each server stage between them, in microseconds.
func stageMeansUS(before, after map[string]float64) map[string]float64 {
	mean := func(h string) float64 {
		n := after["server.latency/"+h+"_count"] - before["server.latency/"+h+"_count"]
		if n == 0 {
			return 0
		}
		return 1e6 * (after["server.latency/"+h+"_sum"] - before["server.latency/"+h+"_sum"]) / n
	}
	return map[string]float64{
		"queue_us":        mean("queue_seconds"),
		"simulate_us":     mean("simulate_seconds"),
		"encode_stage_us": mean("encode_seconds"),
		"request_us":      mean("request_seconds"),
	}
}

// request is one distinct simulate request with its encoded body.
type request struct {
	name string
	req  *server.Request
	body []byte
}

func newRequest(name string, req *server.Request) request {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a Request always encodes
	}
	return request{name: name, req: req, body: body}
}

// serveStrategies are the strategies serve-mix crosses with every kernel on
// M-128 (`auto` is left out; it only delegates to these).
var serveStrategies = []string{"greedy", "greedy+anneal", "congestion", "modulo"}

// kernelRequests is every kernel on M-128 with greedy: the requests the
// paper-sweep traced run replays through the server.
func kernelRequests(cfg config) []request {
	var rs []request
	for _, k := range suiteKernels(cfg) {
		rs = append(rs, newRequest(k.Name+"/M-128/greedy",
			&server.Request{Kernel: k.Name, Backend: "M-128", Mapper: "greedy"}))
	}
	return rs
}

// rawRequest posts a generated program's words as a raw-program request.
func rawRequest(g *genkern.Generated) (request, error) {
	words := make([]uint32, len(g.Prog.Insts))
	for i, in := range g.Prog.Insts {
		w, err := isa.Encode(in)
		if err != nil {
			return request{}, fmt.Errorf("gen %d: %w", g.Seed, err)
		}
		words[i] = w
	}
	return newRequest(fmt.Sprintf("gen%d/M-128/greedy", g.Seed), &server.Request{
		Program: &server.RawProgram{Base: g.Prog.Base, Words: words},
		Backend: "M-128", Mapper: "greedy",
	}), nil
}

// serveMixRequests is serve-mix's distinct request set: every kernel under
// each serve strategy on M-128, every kernel with greedy on M-64 and on
// M-512, and a minority of raw-program requests from seeded programs.
func serveMixRequests(seed int64, raw int) ([]request, error) {
	var rs []request
	for _, k := range kernels.All() {
		for _, s := range serveStrategies {
			rs = append(rs, newRequest(k.Name+"/M-128/"+s,
				&server.Request{Kernel: k.Name, Backend: "M-128", Mapper: s}))
		}
		for _, be := range []string{"M-64", "M-512"} {
			rs = append(rs, newRequest(k.Name+"/"+be+"/greedy",
				&server.Request{Kernel: k.Name, Backend: be, Mapper: "greedy"}))
		}
	}
	for i := 0; i < raw; i++ {
		g, err := genkern.Generate(seed<<20+int64(i), genkern.DefaultMix())
		if err != nil {
			return nil, err
		}
		r, err := rawRequest(g)
		if err != nil {
			return nil, err
		}
		rs = append(rs, r)
	}
	return rs, nil
}

// phaseResult is one closed-loop phase: per-request latencies, the failed
// count with the first failure, and the wall time.
type phaseResult struct {
	latMs     []float64
	failed    int
	firstFail string
	wall      time.Duration
}

// report names the phase's failures, if any, in out's report.
func (p phaseResult) report(out *outcome, phase string) {
	if p.failed > 0 {
		out.line("failed: %s phase: %d of %d requests not answered 200 (first: %s)", phase, p.failed, len(p.latMs), p.firstFail)
	}
}

// runPhase sends reqs[order[0]], reqs[order[1]], ... from `clients`
// closed-loop clients: each sends its next request once the previous reply
// arrived. check is called with each 200 body; a transport error or another
// status is a failed operation, and any failed operation fails the run.
// Spans are recorded for every request when
// spanEvery is 1, otherwise for every spanEvery-th request.
func runPhase(svc *service, reqs []request, order []int, clients int, check func(i int, body []byte),
	tr *tracer, parent *obs.Span, spanEvery int) phaseResult {
	lat := make([]float64, len(order))
	var next, failed atomic.Int64
	var firstFail sync.Once
	var firstFailMsg string
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(order) {
					return
				}
				i := order[j]
				var sp *obs.Span
				if j%spanEvery == 0 {
					sp = tr.start(parent, reqs[i].name)
				}
				start := time.Now()
				status, body, err := svc.post(reqs[i].body)
				lat[j] = ms(time.Since(start))
				sp.End()
				if err != nil || status != http.StatusOK {
					failed.Add(1)
					firstFail.Do(func() {
						firstFailMsg = fmt.Sprintf("%s: status %d: %v %s", reqs[i].name, status, err, bytes.TrimSpace(body))
					})
					continue
				}
				check(i, body)
			}
		}()
	}
	wg.Wait()
	return phaseResult{latMs: lat, failed: int(failed.Load()), firstFail: firstFailMsg, wall: time.Since(t0)}
}

// serveSizes fixes serve-mix's phase sizes.
type serveSizes struct {
	raw  int // raw-program requests in the distinct set
	warm int // requests per warm phase
}

func (c config) serveSizes() serveSizes {
	if c.tiny {
		return serveSizes{raw: 2, warm: 200}
	}
	return serveSizes{raw: 24, warm: 20000}
}

// runServeMix repeats a cold phase (every distinct request once, from an
// empty simulation cache) and a warm phase (seeded repeats of the same
// requests) against an in-process mesad with nproc closed-loop clients.
func runServeMix(cfg config, tr *tracer) (*outcome, error) {
	out := &outcome{}
	clients := runtime.NumCPU()
	size := cfg.serveSizes()
	sp := tr.start(nil, "setup")
	if err := kernelInputs(); err != nil {
		return nil, err
	}
	reqs, err := serveMixRequests(cfg.seed, size.raw)
	if err != nil {
		return nil, err
	}
	svc, err := startService(clients)
	if err != nil {
		return nil, err
	}
	defer svc.stop()
	sp.End()
	if cfg.probe {
		return out, nil
	}
	if cfg.tiny {
		reqs = append(reqs[:4:4], reqs[len(reqs)-size.raw:]...)
	}
	firstOp := time.Since(processStart)

	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 0x5e27e))
	var (
		coldRef               = make([][]byte, len(reqs)) // first cold body per request
		roundCold             = make([][]byte, len(reqs)) // this round's cold bodies
		coldLat, warmLat      []float64
		warmSecs              float64
		warmReqs              int
		coldStages, warmStage []map[string]float64
		misses, hits          []float64
		perRound              []string
		speed, retained       []float64
		mu                    sync.Mutex
	)
	timing := experiments.SimTimingHistograms()
	experiments.ResetSimTiming()
	before := readMem()
	probes := newProber(cfg)
	nRounds, err := rounds(cfg, 3, func(round int) error {
		// Cold phase: every distinct request once, in a seeded order.
		experiments.ResetSimMemo()
		order := rng.Perm(len(reqs))
		speed = append(speed, probeHost())
		s0, err := svc.scrape()
		if err != nil {
			return err
		}
		sp = tr.start(nil, "cold phase")
		cold := runPhase(svc, reqs, order, clients, func(i int, body []byte) {
			mu.Lock()
			defer mu.Unlock()
			roundCold[i] = body
			if coldRef[i] == nil {
				coldRef[i] = body
			} else if !bytes.Equal(body, coldRef[i]) {
				out.problem("cold %s: body differs from the first cold phase", reqs[i].name)
			}
		}, tr, sp, 1)
		sp.End()
		s1, err := svc.scrape()
		if err != nil {
			return err
		}
		coldStages = append(coldStages, stageMeansUS(s0, s1))
		retained = append(retained, retainedMB())
		if err := probes.tick(); err != nil {
			return err
		}
		out.attempted += len(order)
		out.failed += cold.failed
		cold.report(out, "cold")
		coldLat = append(coldLat, cold.latMs...)

		// Warm phase: seeded repeats, each body equal to this round's cold
		// body for the same request (none when every cold reply for it has
		// failed, which is already counted).
		warm := make([]int, size.warm)
		for j := range warm {
			warm[j] = rng.IntN(len(reqs))
		}
		speed = append(speed, probeHost())
		sp = tr.start(nil, "warm phase")
		w := runPhase(svc, reqs, warm, clients, func(i int, body []byte) {
			if roundCold[i] != nil && !bytes.Equal(body, roundCold[i]) {
				mu.Lock()
				out.problem("warm %s: body differs from the cold body", reqs[i].name)
				mu.Unlock()
			}
		}, tr, sp, 100)
		sp.End()
		s2, err := svc.scrape()
		if err != nil {
			return err
		}
		warmStage = append(warmStage, stageMeansUS(s1, s2))
		out.attempted += len(warm)
		out.failed += w.failed
		w.report(out, "warm")
		warmLat = append(warmLat, w.latMs...)
		perRound = append(perRound, fmt.Sprintf("%.0f/%.3f/%.1f", float64(len(warm))/w.wall.Seconds(), median(w.latMs), median(cold.latMs)))
		warmSecs += w.wall.Seconds()
		warmReqs += len(warm)
		if err := probes.tick(); err != nil {
			return err
		}
		for _, m := range experiments.SimMemoMetrics() {
			switch m.Name {
			case "sim_cache_misses":
				misses = append(misses, m.Value)
			case "sim_cache_hits":
				hits = append(hits, m.Value)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	alloc := memSince(before)
	simRunMS := histMeanMS(timing, "sim_run_seconds")
	setupS, err := probes.seconds()
	if err != nil {
		return nil, err
	}

	// Expected bytes come from fresh simulations: a direct Simulate plus
	// EncodeResponse after emptying the cache the timed requests filled.
	experiments.ResetSimMemo()
	for i, r := range reqs {
		resp, err := svc.srv.Simulate(r.req)
		if err != nil {
			out.problem("direct %s: %v", r.name, err)
			continue
		}
		want, err := server.EncodeResponse(resp)
		if err != nil {
			out.problem("direct %s: encode: %v", r.name, err)
			continue
		}
		if coldRef[i] != nil && !bytes.Equal(coldRef[i], want) {
			out.problem("%s: served body differs from the direct library call", r.name)
		}
	}

	scale := hostScale(speed)
	out.e2e = map[string]metric{
		"setup_s":     {setupS, "s"},
		"retained_mb": {median(retained), "MB"},
		"main_ms":     {median(warmLat) * scale, "ms"},
		"alt_ms":      {median(coldLat) * scale, "ms"},
		"rate_per_s":  {float64(warmReqs) / warmSecs / scale, "1/s"},
	}
	out.line("rounds %d: cold phase %d distinct requests (%d raw programs), warm phase %d requests; %d closed-loop clients",
		nRounds, len(reqs), size.raw, size.warm, clients)
	out.line("operations (requests): attempted %d failed %d", out.attempted, out.failed)
	out.line("setup_s        %10.4f s   (median of %d set-up probes; this process's start to its first request %.4f s)", setupS, len(probes.secs), firstOp.Seconds())
	for _, ph := range []struct {
		name string
		lat  []float64
	}{{"cold", coldLat}, {"warm", warmLat}} {
		out.line("%s_p50_ms    %10.4f ms  (n=%d)", ph.name, median(ph.lat), len(ph.lat))
		for _, q := range []float64{0.9, 0.99} {
			// A tail is reported only with at least ten samples beyond it.
			if float64(len(ph.lat))*(1-q) >= 10 {
				out.line("%s_p%.0f_ms    %10.4f ms  (n=%d)", ph.name, 100*q, quantile(ph.lat, q), len(ph.lat))
			}
		}
	}
	out.line("warm_req_per_s %10.1f 1/s", float64(warmReqs)/warmSecs)
	out.line("host probe     %10.4f ms  (median of %d; timing metrics scaled by %.4f to a %g ms probe)", median(speed), len(speed), scale, probeNominalMS)
	out.line("retained_mb    %10.1f MB  (live heap after a cold phase, median of %d)", median(retained), len(retained))
	out.line("peak_rss_mb    %10.1f MB", peakRSSMB())
	out.line("per round warm req/s / warm p50 ms / cold p50 ms: %s", strings.Join(perRound, " "))

	if cfg.trace {
		ops := float64(out.attempted)
		out.layers = map[string]metric{
			"experiments.memo_misses": {median(misses), "count"},
			"experiments.memo_hits":   {median(hits), "count"},
			"experiments.sim_run_ms":  {simRunMS, "ms"},
			"go.alloc_mb":             {alloc.allocMB / ops, "MB"},
			"go.gc_cycles":            {float64(alloc.gcs-uint32(len(retained))) / ops, "count"},
		}
		putStages(out, "cold", coldStages)
		putStages(out, "warm", warmStage)
		if err := replayLayers(cfg, tr, kernelRegions(cfg), out); err != nil {
			return nil, err
		}
		us, err := replayEncode(svc.srv, reqs, tr)
		if err != nil {
			return nil, err
		}
		out.layers["server.encode_us"] = metric{us, "us"}
	}
	return out, nil
}

// putStages reports the median over phases of each stage mean.
func putStages(out *outcome, phase string, per []map[string]float64) {
	for _, stage := range []string{"queue_us", "simulate_us", "encode_stage_us", "request_us"} {
		var xs []float64
		for _, m := range per {
			xs = append(xs, m[stage])
		}
		out.layers["server."+phase+"."+stage] = metric{median(xs), "us"}
	}
}

// encodeReps is how many times each distinct response is encoded.
const encodeReps = 20

// replayEncode times server.EncodeResponse over every distinct response.
func replayEncode(srv *server.Server, reqs []request, tr *tracer) (float64, error) {
	sp := tr.start(nil, "server.EncodeResponse")
	defer sp.End()
	var total time.Duration
	for _, r := range reqs {
		resp, err := srv.Simulate(r.req)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", r.name, err)
		}
		t0 := time.Now()
		for i := 0; i < encodeReps; i++ {
			if _, err := server.EncodeResponse(resp); err != nil {
				return 0, err
			}
		}
		total += time.Since(t0)
	}
	return float64(total.Nanoseconds()) / 1e3 / float64(len(reqs)*encodeReps), nil
}

// replayServer posts a workload's own inputs to an in-process mesad once
// cold and once warm, for the server stage metrics of workloads that do not
// otherwise reach the server, and times response encoding.
func replayServer(tr *tracer, reqs []request, out *outcome) error {
	clients := runtime.NumCPU()
	svc, err := startService(clients)
	if err != nil {
		return err
	}
	defer svc.stop()
	experiments.ResetSimMemo()
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	var stages [2]map[string]float64
	for p, phase := range []string{"cold", "warm"} {
		s0, err := svc.scrape()
		if err != nil {
			return err
		}
		sp := tr.start(nil, "replay "+phase)
		res := runPhase(svc, reqs, order, clients, func(int, []byte) {}, tr, sp, 1)
		sp.End()
		if res.failed > 0 {
			out.problem("server replay: %d %s requests failed (first: %s)", res.failed, phase, res.firstFail)
		}
		s1, err := svc.scrape()
		if err != nil {
			return err
		}
		stages[p] = stageMeansUS(s0, s1)
	}
	putStages(out, "cold", stages[:1])
	putStages(out, "warm", stages[1:])
	us, err := replayEncode(svc.srv, reqs, tr)
	if err != nil {
		return err
	}
	out.layers["server.encode_us"] = metric{us, "us"}
	return nil
}
