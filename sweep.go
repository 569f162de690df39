package crn

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"crn/internal/rng"
	"crn/internal/stats"
)

// Variant names one scenario configuration inside a sweep. Exactly one
// of Scenario (a prebuilt scenario, shared read-only by the workers)
// or Options (applied once when the sweep starts) must be set.
type Variant struct {
	// Name labels the variant in aggregates; empty defaults to
	// "variant-<index>".
	Name string
	// Scenario is a prebuilt scenario to run on.
	Scenario *Scenario
	// Options generate the scenario at sweep start when Scenario is nil.
	Options []ScenarioOption
}

// SweepSpec describes a sweep: one primitive fanned out over
// Seeds × len(Variants) runs.
type SweepSpec struct {
	// Primitive is the primitive every run executes.
	Primitive Primitive
	// Variants are the scenario configurations to sweep over; at least
	// one is required.
	Variants []Variant
	// Seeds is the number of runs per variant (default 1). Per-run
	// seeds are derived deterministically from BaseSeed via rng.Split,
	// so run (variant, i) sees the same seed regardless of Workers —
	// or of which shard of a ShardPlan executes it.
	Seeds int
	// BaseSeed is the master seed of the sweep.
	BaseSeed uint64
	// Workers bounds the parallelism (0 means GOMAXPROCS). The
	// aggregates are byte-identical for any worker count.
	Workers int
	// KeepResults retains every run's full Result envelope (per-node
	// neighbor lists and all). Off by default: aggregation only needs
	// each run's Metrics, and large sweeps would otherwise hold
	// O(runs × n × degree) of detail until the sweep returns.
	KeepResults bool
}

// resolvedSweep is a validated SweepSpec: variant names and scenarios
// resolved, the seed count defaulted, and the master rng fixed. It is
// the common ground under Sweep, PlanShards and RunShard — all three
// must agree on the job grid (job = variant*seeds + index) and the
// per-run seed derivation, or sharded execution would diverge from
// in-process execution.
type resolvedSweep struct {
	spec      SweepSpec
	seeds     int
	total     int
	names     []string
	scenarios []*Scenario
	master    *rng.Source
}

func resolveSweep(spec SweepSpec) (*resolvedSweep, error) {
	if spec.Primitive == nil {
		return nil, fmt.Errorf("crn: sweep needs a primitive")
	}
	if len(spec.Variants) == 0 {
		return nil, fmt.Errorf("crn: sweep needs at least one variant")
	}
	rs := &resolvedSweep{
		spec:      spec,
		seeds:     spec.Seeds,
		names:     make([]string, len(spec.Variants)),
		scenarios: make([]*Scenario, len(spec.Variants)),
		master:    rng.New(spec.BaseSeed),
	}
	if rs.seeds <= 0 {
		rs.seeds = 1
	}
	rs.total = len(spec.Variants) * rs.seeds

	// Resolve scenarios up front so configuration errors surface before
	// any worker starts.
	for v, variant := range spec.Variants {
		rs.names[v] = variant.Name
		if rs.names[v] == "" {
			rs.names[v] = fmt.Sprintf("variant-%d", v)
		}
		switch {
		case variant.Scenario != nil && variant.Options != nil:
			return nil, fmt.Errorf("crn: variant %q sets both Scenario and Options", rs.names[v])
		case variant.Scenario != nil:
			rs.scenarios[v] = variant.Scenario
		case variant.Options != nil:
			s, err := New(variant.Options...)
			if err != nil {
				return nil, fmt.Errorf("crn: variant %q: %w", rs.names[v], err)
			}
			rs.scenarios[v] = s
		default:
			return nil, fmt.Errorf("crn: variant %q has neither Scenario nor Options", rs.names[v])
		}
	}
	return rs, nil
}

// deriveSeed is the one per-run seed derivation: Split reads (does
// not advance) the master state, keyed by (variant, index), so the
// seed depends only on BaseSeed and the job's grid position — never
// on scheduling, worker count or shard boundaries. MergeShards
// re-derives seeds through this same helper to validate artifacts;
// any change here is a breaking change to recorded shard artifacts.
func deriveSeed(master *rng.Source, v, i int) uint64 {
	return master.Split(uint64(v)<<32 | uint64(i)).Uint64()
}

// runFor returns the blank Run for one job: identity and derived seed
// set, outcome not yet filled in.
func (rs *resolvedSweep) runFor(job int) Run {
	v, i := job/rs.seeds, job%rs.seeds
	return Run{
		Variant: rs.names[v],
		Index:   i,
		Seed:    deriveSeed(rs.master, v, i),
	}
}

// recordResult fills one Run from its primitive Result.
func (rs *resolvedSweep) recordResult(run *Run, res *Result) {
	run.Completed = res.Completed
	run.Metrics = res.Metrics()
	if rs.spec.KeepResults {
		run.Result = res
	}
}

// executeJobs runs the contiguous job range [lo, hi) on a worker
// pool, filling runs[k] with the outcome of job lo+k (runs must come
// from runFor). Individual run errors are recorded on the Run; only
// cancellation aborts the pool.
func (rs *resolvedSweep) executeJobs(ctx context.Context, lo, hi int, runs []Run) error {
	if hi <= lo {
		return ctx.Err()
	}
	workers := rs.spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > hi-lo {
		workers = hi - lo
	}

	feed := make(chan int)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for k := range feed {
				run := &runs[k]
				res, err := rs.spec.Primitive.Run(ctx, rs.scenarios[(lo+k)/rs.seeds], run.Seed)
				if err != nil {
					run.Err = err.Error()
					continue
				}
				rs.recordResult(run, res)
			}
		}()
	}
loop:
	for k := 0; k < hi-lo; k++ {
		select {
		case feed <- k:
		case <-ctx.Done():
			break loop
		}
	}
	close(feed)
	for w := 0; w < workers; w++ {
		<-done
	}
	return ctx.Err()
}

// aggregateRuns is the single aggregation path shared by in-process
// sweeps (Sweep) and shard merges (MergeShards): runs must be the
// complete job grid in (variant, index) order. Each metric funnels
// through a stats.Accumulator, whose Summary is a pure function of the
// sample multiset — which is why merged shards reproduce the
// single-process aggregates byte for byte.
func aggregateRuns(primitive string, names []string, seeds int, runs []Run) []Aggregate {
	aggs := make([]Aggregate, len(names))
	for v := range names {
		agg := Aggregate{
			Variant:   names[v],
			Primitive: primitive,
			Metrics:   make(map[string]Summary),
		}
		accs := make(map[string]*stats.Accumulator)
		for i := 0; i < seeds; i++ {
			run := runs[v*seeds+i]
			agg.Runs++
			if run.Err != "" {
				agg.Failures++
				continue
			}
			if run.Completed {
				agg.Completed++
			}
			for name, value := range run.Metrics {
				acc := accs[name]
				if acc == nil {
					acc = &stats.Accumulator{}
					accs[name] = acc
				}
				acc.Add(value)
			}
		}
		keys := make([]string, 0, len(accs))
		for name := range accs {
			keys = append(keys, name)
		}
		sort.Strings(keys)
		for _, name := range keys {
			agg.Metrics[name] = accs[name].Summary()
		}
		aggs[v] = agg
	}
	return aggs
}

// Sweep fans spec.Primitive out over spec.Seeds × spec.Variants on a
// worker pool of spec.Workers goroutines. Scenarios are built once per
// variant and shared read-only; per-run seeds are derived from
// BaseSeed with rng.Split keyed by (variant, index), so results — and
// therefore the aggregates — are byte-identical for any worker count.
// (They are also byte-identical to running the same spec through a
// ShardPlan of any width and merging: see PlanShards / MergeShards.)
//
// Cancellation: ctx is threaded into every primitive run (the engines
// poll it every 16 simulated slots); when ctx is cancelled, Sweep
// abandons unfinished work and returns ctx.Err().
//
// Individual run errors do not abort the sweep: they are recorded on
// the Run and counted in the variant's Failures.
func Sweep(ctx context.Context, spec SweepSpec) (*SweepResult, error) {
	rs, err := resolveSweep(spec)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	runs := make([]Run, rs.total)
	for job := range runs {
		runs[job] = rs.runFor(job)
	}
	if err := rs.executeJobs(ctx, 0, rs.total, runs); err != nil {
		return nil, err
	}
	return &SweepResult{
		Aggregates: aggregateRuns(spec.Primitive.Name(), rs.names, rs.seeds, runs),
		Runs:       runs,
	}, nil
}
