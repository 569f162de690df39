package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crn"
	"crn/internal/sweepd"
	"crn/internal/sweepfile"
)

// Poll intervals of the service workload, fixed at a few milliseconds
// so job latency measures the daemon rather than idle sleeps.
const (
	workerPoll    = 2 * time.Millisecond // sweepd.Worker.Poll
	workerPollMax = 8 * time.Millisecond // sweepd.Worker.PollMax
	waitPoll      = 2 * time.Millisecond // sweepd.Client.Wait poll
	readyTimeout  = 10 * time.Second
	maxInflight   = 64 // crnsweepd serve's default
)

// sweepdVerbs are the HTTP verbs every job exercises; the traced run
// reports a count and a median latency for each.
var sweepdVerbs = []string{"submit", "status", "result", "acquire", "complete"}

// verbOf names the daemon API call a request makes.
func verbOf(method, path string) string {
	rest, _ := strings.CutPrefix(path, "/api/v1/")
	parts := strings.Split(rest, "/")
	switch {
	case rest == "healthz":
		return "healthz"
	case rest == "jobs" && method == http.MethodPost:
		return "submit"
	case rest == "jobs":
		return "list"
	case parts[0] == "jobs" && len(parts) == 2:
		return "status"
	case parts[0] == "jobs" && len(parts) == 3:
		return parts[2] // result
	case rest == "lease":
		return "acquire"
	case parts[0] == "leases" && len(parts) == 3:
		return parts[2] // heartbeat, complete, fail
	}
	return "other"
}

// verbCounts tallies the outcomes of one verb's round trips.
type verbCounts struct {
	calls     int
	grants    int // acquire answered with a lease
	shed      int // 429 replies
	retryable int // transport errors, 429s and 5xx: the client retries these
}

// tracingTransport is the http.RoundTripper the benchmark installs
// with sweepd.WithTransport. While the recorder records, it spans
// every round trip (headers to body close) and counts outcomes per
// verb; otherwise it only forwards.
type tracingTransport struct {
	base  *http.Transport
	rec   *Recorder
	curOp atomic.Int64 // the job in flight, for worker requests

	mu     sync.Mutex
	counts map[string]*verbCounts
}

func newTracingTransport(rec *Recorder) *tracingTransport {
	return &tracingTransport{
		base:   http.DefaultTransport.(*http.Transport).Clone(),
		rec:    rec,
		counts: make(map[string]*verbCounts),
	}
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.Recording() {
		return t.base.RoundTrip(req)
	}
	verb := verbOf(req.Method, req.URL.Path)
	parent, op := spanFrom(req.Context())
	if op == 0 {
		op = t.curOp.Load()
	}
	sp := t.rec.Begin("sweepd."+verb, parent, op)
	resp, err := t.base.RoundTrip(req)

	t.mu.Lock()
	c := t.counts[verb]
	if c == nil {
		c = &verbCounts{}
		t.counts[verb] = c
	}
	c.calls++
	switch {
	case err != nil:
		c.retryable++
	case resp.StatusCode == http.StatusTooManyRequests:
		c.shed++
		c.retryable++
	case resp.StatusCode >= 500:
		c.retryable++
	case verb == "acquire" && resp.StatusCode == http.StatusOK:
		c.grants++
	}
	t.mu.Unlock()

	if err != nil {
		sp.End()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

func (t *tracingTransport) snapshot() map[string]verbCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]verbCounts, len(t.counts))
	for k, v := range t.counts {
		out[k] = *v
	}
	return out
}

// spanBody ends a round trip's span when the client closes the body,
// so the span covers reading the reply too.
type spanBody struct {
	io.ReadCloser
	sp   OpenSpan
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.sp.End)
	return err
}

// service is an in-process crnsweepd: the daemon on a loopback
// listener over a fresh spool, and optionally pull workers.
type service struct {
	srv    *sweepd.Server
	ts     *httptest.Server
	tr     *tracingTransport
	client *sweepd.Client
	spool  string
	stop   context.CancelFunc
	wg     sync.WaitGroup
}

var quiet = log.New(io.Discard, "", 0)

// bootService starts the daemon on a fresh spool under dir and waits
// until it answers its health check.
func bootService(ctx context.Context, dir string, rec *Recorder) (*service, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	spool, err := os.MkdirTemp(dir, "spool-")
	if err != nil {
		return nil, err
	}
	srv, err := sweepd.New(sweepd.Config{Spool: spool, MaxInflight: maxInflight, Log: quiet})
	if err != nil {
		os.RemoveAll(spool)
		return nil, fmt.Errorf("starting sweepd: %w", err)
	}
	s := &service{srv: srv, ts: httptest.NewServer(srv.Handler()), tr: newTracingTransport(rec), spool: spool, stop: func() {}}
	s.client = sweepd.NewClient(s.ts.URL, sweepd.WithTransport(s.tr))
	if err := s.client.WaitReady(ctx, readyTimeout); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// startWorkers runs n pull workers, each simulating one run at a time.
func (s *service) startWorkers(n int) {
	ctx, cancel := context.WithCancel(context.Background())
	s.stop = cancel
	for i := 0; i < n; i++ {
		w := &sweepd.Worker{
			Client: s.client, Name: fmt.Sprintf("bench-%d", i), Workers: 1,
			Poll: workerPoll, PollMax: workerPollMax, Log: quiet,
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			w.Run(ctx)
		}()
	}
}

// job submits spec, waits for it and returns the merged result bytes.
func (s *service) job(ctx context.Context, sf *sweepfile.Spec, op int64) ([]byte, error) {
	s.tr.curOp.Store(op)
	sp := s.tr.rec.Begin("sweepd.job", 0, op)
	defer sp.End()
	ctx = withSpan(ctx, sp.ID(), op)
	id, err := s.client.Submit(ctx, sf, serviceShards)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	if _, err := s.client.Wait(ctx, id, waitPoll); err != nil {
		return nil, fmt.Errorf("wait: %w", err)
	}
	_, doc, err := s.client.Result(ctx, id)
	if err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	return doc, nil
}

// close stops the workers and the daemon and removes the spool.
func (s *service) close() error {
	s.stop()
	s.wg.Wait()
	s.ts.Close()
	s.tr.base.CloseIdleConnections()
	err := s.srv.Close()
	if rerr := os.RemoveAll(s.spool); err == nil {
		err = rerr
	}
	return err
}

// inProcessBytes runs spec through crn.Sweep and encodes the result
// the way the daemon encodes merged results.
func inProcessBytes(ctx context.Context, spec crn.SweepSpec) ([]byte, error) {
	res, err := crn.Sweep(ctx, spec)
	if err != nil {
		return nil, err
	}
	return sweepfile.MarshalPretty(res)
}

// serviceRunner drives the service workload: each op is one sweep job
// submitted to the daemon and waited for, whose merged bytes must
// equal the in-process crn.Sweep bytes of the same spec; each step
// submits every spec of the pool once, in order.
type serviceRunner struct {
	seed uint64
	pool []*sweepfile.Spec
	dir  string
	rec  *Recorder
	// workers is the in-process reference sweeps' pool size.
	workers int
	ref     string // committed digest of the in-process bytes, if any
	bad     bool   // the in-process bytes disagree with the committed digest
	want    [][]byte
	svc     *service
	ops     atomic.Int64
	scens   []*crn.Scenario
}

func newServiceRunner(seed uint64, ref, dir string, workers int, rec *Recorder) *serviceRunner {
	r := &serviceRunner{seed: seed, dir: dir, workers: workers, rec: rec, ref: ref}
	for i := 0; i < servicePool; i++ {
		r.pool = append(r.pool, serviceSpec(seed, i))
	}
	return r
}

func (r *serviceRunner) setupOnce(ctx context.Context) (time.Duration, error) {
	t0 := time.Now()
	spec, err := sweepfile.BuildSweepSpec(r.pool[0], nproc())
	if err != nil {
		return 0, err
	}
	scens := make([]*crn.Scenario, len(spec.Variants))
	for i, v := range spec.Variants {
		sp := r.rec.Begin("scenario.build", 0, 0)
		scens[i], err = crn.New(v.Options...)
		sp.End()
		if err != nil {
			return 0, fmt.Errorf("building %s: %w", v.Name, err)
		}
	}
	sp := r.rec.Begin("sweepd.boot", 0, 0)
	svc, err := bootService(ctx, r.dir, r.rec)
	sp.End()
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	r.scens = scens
	return d, svc.close()
}

// poolDigest fingerprints the pool's expected bytes, in pool order.
func poolDigest(docs [][]byte) string {
	var all []byte
	for _, doc := range docs {
		all = append(all, bytesDigest(doc)...)
	}
	return bytesDigest(all)
}

func (r *serviceRunner) start(ctx context.Context) error {
	for _, sf := range r.pool {
		spec, err := sweepfile.BuildSweepSpec(sf, r.workers)
		if err != nil {
			return err
		}
		want, err := inProcessBytes(ctx, spec)
		if err != nil {
			return fmt.Errorf("in-process sweep: %w", err)
		}
		r.want = append(r.want, want)
	}
	if r.ref == "" {
		r.ref = poolDigest(r.want)
	}
	r.bad = poolDigest(r.want) != r.ref
	var err error
	if r.svc, err = bootService(ctx, r.dir, r.rec); err != nil {
		return err
	}
	r.svc.startWorkers(nproc())
	return nil
}

func (r *serviceRunner) step(ctx context.Context) (stepResult, error) {
	var out stepResult
	for i, sf := range r.pool {
		t0 := time.Now()
		doc, err := r.svc.job(ctx, sf, r.ops.Add(1))
		out.ops = append(out.ops, opSample{key: strconv.Itoa(i), ms: msOf(time.Since(t0))})
		if err != nil || r.bad || !bytes.Equal(doc, r.want[i]) {
			out.failed++
			continue
		}
		out.runs += sf.Seeds * len(sf.Variants)
	}
	// Jobs run one at a time, so each job is also a part of the step.
	out.parts = out.ops
	return out, nil
}

func (r *serviceRunner) reference() string { return r.ref }

func (r *serviceRunner) close() error {
	if r.svc == nil {
		return nil
	}
	err := r.svc.close()
	r.svc = nil
	return err
}

func (r *serviceRunner) probe(ctx context.Context, m metricSet) error {
	// The layer probes time calls in isolation: stop the measured
	// service first so its idle workers do not compete with them.
	if err := r.close(); err != nil {
		return err
	}
	return probeLayers(ctx, r.rec, m, specVariants(r.pool[0]), r.scens, r.seed, r.dir)
}

// spoolDir is where the service workload keeps its daemon spools.
func spoolDir(root, workload string) string {
	return filepath.Join(root, ".bench_build", "spool", fmt.Sprintf("%s-%d", workload, os.Getpid()))
}
