package main

import (
	"context"
	"encoding/json"
	"strconv"
	"testing"

	"crn"
)

func TestPercentileTenBeyondRule(t *testing.T) {
	if got := minSamples(90); got != 100 {
		t.Errorf("minSamples(90) = %d, want 100", got)
	}
	if got := minSamples(50); got != 20 {
		t.Errorf("minSamples(50) = %d, want 20", got)
	}
	for _, tc := range []struct {
		n, pct, beyond int
		ok             bool
	}{
		{99, 90, 9, false},
		{100, 90, 10, true},
		{101, 90, 10, true},
		{180, 90, 18, true},
		{19, 50, 9, false},
		{20, 50, 10, true},
	} {
		if got := beyond(tc.n, tc.pct); got != tc.beyond {
			t.Errorf("beyond(%d, %d) = %d, want %d", tc.n, tc.pct, got, tc.beyond)
		}
		if got := reportable(tc.n, tc.pct); got != tc.ok {
			t.Errorf("reportable(%d, %d) = %v, want %v", tc.n, tc.pct, got, tc.ok)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "sweep", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "run", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "run", Start: 30, End: 60},  // overlaps 2
		{ID: 4, Parent: 1, Name: "run", Start: 80, End: 120}, // overruns the parent
		{ID: 5, Parent: 3, Name: "leaf", Start: 35, End: 45},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 20, 2: 30, 3: 30 - 10, 4: 40, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	sum := summarize(spans)
	for _, s := range sum {
		if s.Name == "run" && (s.Count != 3 || s.SelfMs != float64(30+20+40)/1e6) {
			t.Errorf("run summary = %+v", s)
		}
	}
}

func TestRecorderOff(t *testing.T) {
	var nilRec *Recorder
	nilRec.Begin("x", 0, 0).End()
	rec := NewRecorder()
	rec.SetRecording(false)
	sp := rec.Begin("x", 0, 0)
	sp.End()
	if sp.ID() != 0 || len(rec.Spans()) != 0 {
		t.Errorf("a switched-off recorder kept a span")
	}
	rec.SetRecording(true)
	rec.Begin("y", 0, 7).End()
	if s := rec.Spans(); len(s) != 1 || s[0].Name != "y" || s[0].Op != 7 || s[0].End < s[0].Start {
		t.Errorf("spans = %+v", s)
	}
}

// smallSweep is a sweep runner over two small scenarios.
func smallSweep(t *testing.T, ref string) *sweepRunner {
	t.Helper()
	r := &sweepRunner{
		name: "test", seed: 5, ref: ref, workers: 2,
		prim: crn.Discovery(crn.CSeek),
		variants: []variantDesc{
			{Name: "path6", Kind: "path6", Topology: crn.Path, N: 6, C: 3, K: 2, Seed: 1},
			{Name: "star8", Kind: "star8", Topology: crn.Star, N: 8, C: 4, K: 2, Seed: 2},
		},
	}
	ctx := context.Background()
	if _, err := r.setupOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if err := r.start(ctx); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDigestCheck(t *testing.T) {
	ctx := context.Background()
	first := smallSweep(t, "")
	st, err := first.step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	runs := 2 * sweepSeeds // two variants
	if st.failed != 0 || len(st.ops) != runs || st.runs != runs || st.digest != first.reference() {
		t.Fatalf("first step: failed %d, ops %d, digest %s, reference %s", st.failed, len(st.ops), st.digest, first.reference())
	}
	again, err := first.step(ctx)
	if err != nil || again.failed != 0 || again.digest != st.digest {
		t.Fatalf("repeated step: failed %d, digest %s, want %s (err %v)", again.failed, again.digest, st.digest, err)
	}

	// A fresh runner checked against that digest passes; against any
	// other digest, every run of the step counts as failed.
	if st2, err := smallSweep(t, st.digest).step(ctx); err != nil || st2.failed != 0 {
		t.Errorf("matching reference: failed %d (err %v)", st2.failed, err)
	}
	if st3, err := smallSweep(t, "sha256:0").step(ctx); err != nil || st3.failed != runs || st3.runs != 0 {
		t.Errorf("wrong reference: failed %d of %d (err %v)", st3.failed, runs, err)
	}
}

func TestCommittedReferences(t *testing.T) {
	refs := make(map[string]map[string]string)
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		for _, seed := range []int{defaultSeed, heldOutSeed} {
			if refs[w][strconv.Itoa(seed)] == "" {
				t.Errorf("no committed reference for %s seed %d", w, seed)
			}
		}
	}
}

func TestSessionMatchesGlobalBroadcast(t *testing.T) {
	ctx := context.Background()
	s, err := crn.New(crn.WithTopology(crn.UnitDisk), crn.WithNodes(24), crn.WithChannels(4, 2, 0), crn.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		sr, err := runSession(ctx, nil, s, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkSession(ctx, s, seed, sr); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		sr.setupSlots++
		if checkSession(ctx, s, seed, sr) == nil {
			t.Errorf("seed %d: a session with the wrong setup slots passed the check", seed)
		}
	}
}

func TestVerbOf(t *testing.T) {
	for _, tc := range []struct{ method, path, want string }{
		{"POST", "/api/v1/jobs", "submit"},
		{"GET", "/api/v1/jobs", "list"},
		{"GET", "/api/v1/jobs/j1", "status"},
		{"GET", "/api/v1/jobs/j1/result", "result"},
		{"POST", "/api/v1/lease", "acquire"},
		{"POST", "/api/v1/leases/l1/complete", "complete"},
		{"POST", "/api/v1/leases/l1/heartbeat", "heartbeat"},
		{"GET", "/api/v1/healthz", "healthz"},
	} {
		if got := verbOf(tc.method, tc.path); got != tc.want {
			t.Errorf("verbOf(%s %s) = %q, want %q", tc.method, tc.path, got, tc.want)
		}
	}
}

func TestReplayMatchesScenario(t *testing.T) {
	for _, v := range append(discoveryVariants(1)[:3], specVariants(serviceSpec(1, 0))...) {
		s, err := crn.New(v.options()...)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := replay(v, s); err != nil {
			t.Error(err)
		}
	}
}
