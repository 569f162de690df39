package main

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"crn"
)

// sweepRunner drives a sweep workload: each step runs the workload's
// primitive over every scenario as a sequence of small crn.Sweep calls,
// and each op is one primitive run inside them. Every step runs the same specs, so every
// step's digest (over the sweeps' aggregate digests) must equal the
// reference.
type sweepRunner struct {
	name     string
	seed     uint64
	variants []variantDesc
	prim     crn.Primitive
	rec      *Recorder
	dir      string // where the service probe keeps its spool
	workers  int

	scenarios  []*crn.Scenario
	timed      *timedPrimitive
	specs      []crn.SweepSpec // partSeeds runs of one variant each, swept in turn by every step
	ref        string          // committed reference digest, or the first step's
	efficiency []float64
	ops        atomic.Int64
}

func newSweepRunner(name string, seed uint64, ref, dir string, workers int, rec *Recorder) *sweepRunner {
	r := &sweepRunner{name: name, seed: seed, ref: ref, dir: dir, workers: workers, rec: rec}
	switch name {
	case wDiscovery:
		r.variants = discoveryVariants(seed)
		r.prim = crn.Discovery(crn.CSeek)
	default:
		r.variants = broadcastVariants(seed)
		r.prim = crn.GlobalBroadcast(broadcastSource, broadcastMessage)
	}
	return r
}

func (r *sweepRunner) setupOnce(_ context.Context) (time.Duration, error) {
	scenarios, d, err := buildAll(r.variants, r.rec)
	if err != nil {
		return 0, err
	}
	r.scenarios = scenarios
	return d, nil
}

func (r *sweepRunner) start(_ context.Context) error {
	r.timed = &timedPrimitive{
		Primitive: r.prim, rec: r.rec, ops: &r.ops,
		names: make(map[*crn.Scenario]string), kinds: make(map[*crn.Scenario]string),
	}
	r.specs = nil
	for i, v := range r.variants {
		r.timed.names[r.scenarios[i]] = v.Name
		r.timed.kinds[r.scenarios[i]] = v.Kind
		for part := 0; part < sweepSeeds/partSeeds; part++ {
			r.specs = append(r.specs, crn.SweepSpec{
				Primitive: r.timed,
				Variants:  []crn.Variant{{Name: v.Name, Scenario: r.scenarios[i]}},
				Seeds:     partSeeds,
				BaseSeed:  mix(r.seed, uint64(1+part)),
				Workers:   r.workers,
			})
		}
	}
	return nil
}

func (r *sweepRunner) step(ctx context.Context) (stepResult, error) {
	var out stepResult
	var digests []byte
	all := 0
	for i, spec := range r.specs {
		sp := r.rec.Begin("crn.sweep", 0, 0)
		t0 := time.Now()
		res, err := crn.Sweep(withSpan(ctx, sp.ID(), 0), spec)
		wall := time.Since(t0)
		sp.End()
		ops := r.timed.take()
		if err != nil {
			return stepResult{}, fmt.Errorf("sweep of %s: %w", spec.Variants[0].Name, err)
		}
		if r.rec.Recording() {
			r.efficiency = append(r.efficiency, efficiency(ops, spec.Workers, wall))
		}
		out.ops = append(out.ops, ops...)
		out.parts = append(out.parts, opSample{key: strconv.Itoa(i), ms: msOf(wall)})
		for _, run := range res.Runs {
			if run.Err != "" {
				out.failed++
			} else {
				out.runs++
			}
		}
		all += len(res.Runs)
		d, err := aggregateDigest(res)
		if err != nil {
			return stepResult{}, err
		}
		digests = append(digests, d...)
	}
	out.digest = bytesDigest(digests)
	if r.ref == "" {
		r.ref = out.digest
	}
	if out.digest != r.ref {
		out.failed, out.runs = all, 0
	}
	return out, nil
}

// efficiency is Σ run time ÷ (workers × sweep wall time).
func efficiency(ops []opSample, workers int, wall time.Duration) float64 {
	var busy float64
	for _, op := range ops {
		busy += op.ms
	}
	return busy / (float64(workers) * float64(wall.Nanoseconds()) / 1e6)
}

func (r *sweepRunner) reference() string { return r.ref }

func (r *sweepRunner) close() error { return nil }

func (r *sweepRunner) probe(ctx context.Context, m metricSet) error {
	m.set("sweep.parallel_efficiency", median(r.efficiency), "ratio")
	return probeLayers(ctx, r.rec, m, r.variants, r.scenarios, r.seed, r.dir)
}
