package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"gmpregel/internal/bench"
	"gmpregel/internal/graph"
	"gmpregel/internal/machine"
	"gmpregel/internal/pregel"
	"gmpregel/internal/serve"
)

const (
	serveGraph  = "bench"
	serveTenant = "bench"
)

// server is an in-process gmserve listening on loopback.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

func startServer(workers int, seed int64) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		srv:  serve.New(serve.Options{Workers: workers, Seed: seed}),
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener and in-flight engine runs and waits for the
// serving goroutine to return.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // an unfinished shutdown is reported by Serve below
	s.srv.Close()
	<-s.done
}

// client is one closed-loop caller holding one keep-alive connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		// Longer than gmserve's default 30s job deadline: a request that
		// outlives it means the server hung, which fails the run.
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) post(path string, body, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("POST %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(payload))
	}
	return resp.StatusCode, json.Unmarshal(payload, out)
}

// references holds the direct machine.Run Stats of every query on the
// two input versions the graph alternates between.
type references struct {
	spec  serve.GraphSpec
	seeds [2]int64
	stats [2]map[string]pregel.Stats
}

// builderGraph builds the graph gmserve builds for spec.
func builderGraph(spec serve.GraphSpec) (*graph.Directed, error) {
	gs, err := bench.GraphByName(spec.Builder)
	if err != nil {
		return nil, err
	}
	return gs.Build(spec.Scale), nil
}

// newReferences derives both input versions of g as gmserve does, and
// runs every query directly on each.
func newReferences(spec serve.GraphSpec, g *graph.Directed, seeds [2]int64, qs []query, cfg pregel.Config, comp compiler) (*references, error) {
	r := &references{spec: spec, seeds: seeds}
	for v, seed := range seeds {
		in := bench.MakeInputs(g, 0, seed)
		r.stats[v] = map[string]pregel.Stats{}
		for _, q := range qs {
			if _, done := r.stats[v][q.key()]; done {
				continue
			}
			p, err := comp.program(q)
			if err != nil {
				return nil, err
			}
			res, err := machine.Run(p, g, bindings(p, q, in), cfg)
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", q.key(), err)
			}
			r.stats[v][q.key()] = res.Stats
		}
	}
	return r, nil
}

// corrupt perturbs one reference, so every served result of that query
// must be reported wrong.
func (r *references) corrupt(q query) {
	for v := range r.stats {
		st := r.stats[v][q.key()]
		st.Supersteps++
		r.stats[v][q.key()] = st
	}
}

// swapper posts graph loads one at a time, alternating the input seed,
// so a snapshot's version number names its inputs: odd versions carry
// seeds[0], even versions seeds[1].
type swapper struct {
	mu    sync.Mutex
	loads int
	refs  *references
}

func (s *swapper) load(c *client) (time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	spec := s.refs.spec
	spec.InputsSeed = s.refs.seeds[s.loads%2]
	var resp struct {
		Graph string `json:"graph"`
	}
	start := time.Now()
	if _, err := c.post("/graphs", spec, &resp); err != nil {
		return 0, err
	}
	d := time.Since(start)
	s.loads++
	want := fmt.Sprintf("%s@v%d", serveGraph, s.loads)
	return d, check("loaded snapshot", resp.Graph == want, resp.Graph, want)
}

// reply is one answered job request.
type reply struct {
	ms       float64
	hit      bool
	engineMS float64
	rejected bool
}

// job submits q synchronously and checks the served Stats and return
// value against the direct run of q on the snapshot version that served
// it.
func (c *client) job(q query, refs *references) (reply, error) {
	req := serve.JobRequest{
		Tenant: serveTenant, Graph: serveGraph,
		Algorithm: q.Algorithm, Source: q.Source, Params: q.Params,
		NoCache: q.NoCache, Wait: true,
	}
	var st serve.JobStatus
	start := time.Now()
	code, err := c.post("/jobs", req, &st)
	r := reply{ms: ms(time.Since(start)), rejected: code == http.StatusTooManyRequests}
	if err != nil {
		return r, err
	}
	if st.State != "done" || st.Result == nil {
		return r, fmt.Errorf("job %s: state %q: %s", q.key(), st.State, st.Error)
	}
	res := st.Result
	r.hit = st.Cached
	r.engineMS = float64(res.ElapsedNS) / 1e6
	ver, err := strconv.Atoi(strings.TrimPrefix(res.Graph, serveGraph+"@v"))
	if err != nil || ver < 1 {
		return r, fmt.Errorf("job %s: unexpected snapshot %q", q.key(), res.Graph)
	}
	want, ok := refs.stats[(ver-1)%2][q.key()]
	if !ok {
		return r, fmt.Errorf("job %s: no reference", q.key())
	}
	if err := sameStats("served "+q.key()+" on "+res.Graph, res.Stats, want); err != nil {
		return r, err
	}
	return r, checkRet(res.Ret, want)
}

func checkRet(got *serve.RetValue, want pregel.Stats) error {
	if !want.ReturnedIsSet {
		return check("return value", got == nil, got, "none")
	}
	if got == nil {
		return fmt.Errorf("return value missing")
	}
	if want.ReturnedIsInt {
		return check("return value", got.Kind == "int" && got.Int == want.ReturnedInt, *got, want.ReturnedInt)
	}
	return check("return value", got.Kind == "float" && got.Float == want.ReturnedFloat, *got, want.ReturnedFloat)
}

// serveSamples collects the serve-layer observations of one load.
type serveSamples struct {
	mu       sync.Mutex
	jobs     []float64 // every answered job request
	hits     []float64
	engine   []float64 // ElapsedNS of misses
	overhead []float64 // miss latency minus ElapsedNS
	swaps    []float64
	rejected int
}

func (s *serveSamples) addJob(r reply, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.rejected {
		s.rejected++
	}
	if err != nil {
		return
	}
	s.jobs = append(s.jobs, r.ms)
	if r.hit {
		s.hits = append(s.hits, r.ms)
		return
	}
	s.engine = append(s.engine, r.engineMS)
	s.overhead = append(s.overhead, r.ms-r.engineMS)
}

func (s *serveSamples) addSwap(d time.Duration, err error) {
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.swaps = append(s.swaps, ms(d))
}

func (s *serveSamples) report(m metrics) {
	m["serve.cache_hit_ratio"] = float64(len(s.hits)) / float64(len(s.jobs))
	m["serve.hit_ms_p50"] = median(s.hits)
	m["serve.engine_ms_p50"] = median(s.engine)
	m["serve.overhead_ms_p50"] = median(s.overhead)
	m["serve.swap_ms_p50"] = median(s.swaps)
	m["serve.rejected"] = float64(s.rejected)
}

// serveProbe measures the serve layer on a batch workload's query: one
// client loops over a cacheable request (a miss on a fresh snapshot),
// the same request again (a hit), a nocache request (a miss) and a
// hot-swap to the other input version, until the deadline and at least
// twice, so both versions serve.
func serveProbe(q query, spec serve.GraphSpec, seeds [2]int64, cfg pregel.Config, deadline time.Time, comp compiler, t *tally, m metrics) error {
	g, err := builderGraph(spec)
	if err != nil {
		return err
	}
	refs, err := newReferences(spec, g, seeds, []query{q}, cfg, comp)
	if err != nil {
		return err
	}
	srv, err := startServer(cfg.NumWorkers, cfg.Seed)
	if err != nil {
		return err
	}
	defer srv.close()
	c := newClient(srv.url)
	defer c.close()
	sw := &swapper{refs: refs}
	if _, err := sw.load(c); err != nil {
		return err
	}
	nocache := q
	nocache.NoCache = true
	var s serveSamples
	for cycle := 0; cycle < 2 || time.Now().Before(deadline); cycle++ {
		for _, r := range []query{q, q, nocache} {
			rep, err := c.job(r, refs)
			t.record(err)
			s.addJob(rep, err)
		}
		d, err := sw.load(c)
		t.record(err)
		s.addSwap(d, err)
	}
	s.report(m)
	return nil
}
