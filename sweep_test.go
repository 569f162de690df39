package crn_test

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"crn"
)

func discoverySpec(workers int) crn.SweepSpec {
	return crn.SweepSpec{
		Primitive: crn.Discovery(crn.CSeek),
		Variants: []crn.Variant{
			{Name: "path", Options: []crn.ScenarioOption{
				crn.WithTopology(crn.Path), crn.WithNodes(6), crn.WithChannels(3, 2, 0), crn.WithSeed(1),
			}},
			{Name: "star", Options: []crn.ScenarioOption{
				crn.WithTopology(crn.Star), crn.WithNodes(8), crn.WithChannels(4, 2, 0), crn.WithSeed(2),
			}},
		},
		Seeds:       4,
		BaseSeed:    42,
		Workers:     workers,
		KeepResults: true,
	}
}

// mixedSpec is a sweep over three variants that cover every engine
// configuration a sweep can run: a plain static variant, one with a
// run-scoped reactive adversary (an ActivitySink jammer), and a
// dynamic-topology variant whose runs mutate private graph clones.
func mixedSpec(primitive crn.Primitive, workers int) crn.SweepSpec {
	return crn.SweepSpec{
		Primitive: primitive,
		Variants: []crn.Variant{
			{Name: "static", Options: []crn.ScenarioOption{
				crn.WithTopology(crn.GNP), crn.WithNodes(16), crn.WithDensity(0.3),
				crn.WithChannels(4, 2, 0), crn.WithSeed(11),
			}},
			{Name: "adversary", Options: []crn.ScenarioOption{
				crn.WithTopology(crn.GNP), crn.WithNodes(14), crn.WithDensity(0.35),
				crn.WithChannels(4, 2, 0), crn.WithSeed(12), crn.WithAdversary(1),
			}},
			{Name: "churn", Options: []crn.ScenarioOption{
				crn.WithTopology(crn.GNP), crn.WithNodes(12), crn.WithDensity(0.4),
				crn.WithChannels(3, 2, 0), crn.WithSeed(13), crn.WithChurn(0.002, 0.05, 9),
			}},
		},
		Seeds:       6,
		BaseSeed:    99,
		Workers:     workers,
		KeepResults: true,
	}
}

// TestSweepDeterministicAcrossWorkers is the engine's core contract:
// the same spec produces byte-identical results — runs and aggregates
// — at every worker count, for static, adversarial and churning
// variants alike.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	rows := []struct {
		name string
		spec func(workers int) crn.SweepSpec
	}{
		{"discovery", discoverySpec},
		{"mixed-cseek", func(w int) crn.SweepSpec { return mixedSpec(crn.Discovery(crn.CSeek), w) }},
		{"mixed-ckseek", func(w int) crn.SweepSpec { return mixedSpec(crn.KDiscovery(2), w) }},
	}
	ctx := context.Background()
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			baseline, err := crn.Sweep(ctx, row.spec(1))
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(baseline)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 8} {
				res, err := crn.Sweep(ctx, row.spec(workers))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				got, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Errorf("workers=%d diverged from workers=1:\n%s\nvs\n%s", workers, got, want)
				}
			}
		})
	}
}

// TestSweepAggregates sanity-checks the aggregate bookkeeping on a
// sweep that completes every run.
func TestSweepAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	res, err := crn.Sweep(context.Background(), discoverySpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Aggregates) != 2 {
		t.Fatalf("got %d aggregates, want 2", len(res.Aggregates))
	}
	if len(res.Runs) != 8 {
		t.Fatalf("got %d runs, want 8", len(res.Runs))
	}
	seeds := make(map[uint64]bool)
	for _, run := range res.Runs {
		if run.Err != "" {
			t.Errorf("run (%s, %d) failed: %s", run.Variant, run.Index, run.Err)
		}
		if run.Result == nil {
			t.Errorf("run (%s, %d) dropped its Result despite KeepResults", run.Variant, run.Index)
		}
		if seeds[run.Seed] {
			t.Errorf("duplicate derived seed %d", run.Seed)
		}
		seeds[run.Seed] = true
	}
	for _, agg := range res.Aggregates {
		if agg.Primitive != "cseek" {
			t.Errorf("aggregate primitive %q", agg.Primitive)
		}
		if agg.Runs != 4 || agg.Failures != 0 {
			t.Errorf("aggregate %s: runs=%d failures=%d", agg.Variant, agg.Runs, agg.Failures)
		}
		tt, ok := agg.Metrics["timeToComplete"]
		if !ok || tt.N != 4 {
			t.Errorf("aggregate %s missing timeToComplete summary: %+v", agg.Variant, tt)
		}
		if _, ok := agg.Metrics["pairsTotal"]; !ok {
			t.Errorf("aggregate %s missing discovery detail metric", agg.Variant)
		}
	}

	// Without KeepResults the per-run detail is dropped but the
	// metrics — and therefore the aggregates — are unchanged.
	lean := discoverySpec(4)
	lean.KeepResults = false
	leanRes, err := crn.Sweep(context.Background(), lean)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range leanRes.Runs {
		if run.Result != nil {
			t.Errorf("run (%s, %d) kept its Result without KeepResults", run.Variant, run.Index)
		}
		if len(run.Metrics) == 0 {
			t.Errorf("run (%s, %d) lost its metrics", run.Variant, run.Index)
		}
	}
	if !reflect.DeepEqual(leanRes.Aggregates, res.Aggregates) {
		t.Error("aggregates changed when KeepResults was disabled")
	}
}

func TestSweepSpecValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := crn.Sweep(ctx, crn.SweepSpec{}); err == nil {
		t.Error("nil primitive accepted")
	}
	if _, err := crn.Sweep(ctx, crn.SweepSpec{Primitive: crn.Discovery(crn.CSeek)}); err == nil {
		t.Error("empty variant list accepted")
	}
	if _, err := crn.Sweep(ctx, crn.SweepSpec{
		Primitive: crn.Discovery(crn.CSeek),
		Variants:  []crn.Variant{{Name: "empty"}},
	}); err == nil {
		t.Error("variant without scenario or options accepted")
	}
	if _, err := crn.Sweep(ctx, crn.SweepSpec{
		Primitive: crn.Discovery(crn.CSeek),
		Variants: []crn.Variant{{
			Options: []crn.ScenarioOption{crn.WithNodes(1), crn.WithChannels(1, 1, 0)},
		}},
	}); err == nil {
		t.Error("invalid variant options accepted")
	}
}

// longBroadcastScenario is big enough that a full-fidelity CGCAST run
// takes far longer than the cancellation deadlines below.
func longBroadcastScenario(t *testing.T) *crn.Scenario {
	t.Helper()
	s, err := crn.New(crn.WithTopology(crn.Chain), crn.WithNodes(64), crn.WithChannels(16, 1, 0), crn.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestGlobalBroadcastCancellation proves a long CGCAST run stops early
// when its context is cancelled: with a pre-cancelled context it
// returns immediately, and with a short timeout it returns as soon as
// the engine observes the deadline — not after the multi-second
// full-fidelity schedule.
func TestGlobalBroadcastCancellation(t *testing.T) {
	s := longBroadcastScenario(t)
	prim := crn.GlobalBroadcast(0, "m", crn.WithFullFidelity())

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := prim.Run(cancelled, s, 7); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run returned %v, want context.Canceled", err)
	}

	ctx, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, err := prim.Run(ctx, s, 7)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out run returned %v, want context.DeadlineExceeded", err)
	}
	// Generous bound: the full run takes seconds; a honored deadline
	// returns orders of magnitude sooner.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestSweepCancellation: a cancelled context aborts the sweep and
// surfaces ctx.Err().
func TestSweepCancellation(t *testing.T) {
	s := longBroadcastScenario(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := crn.Sweep(ctx, crn.SweepSpec{
		Primitive: crn.GlobalBroadcast(0, "m", crn.WithFullFidelity()),
		Variants:  []crn.Variant{{Name: "chain", Scenario: s}},
		Seeds:     8,
		BaseSeed:  5,
		Workers:   2,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("sweep returned %v, want context.DeadlineExceeded", err)
	}
}
