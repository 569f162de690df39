// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives one workload through the public entry points
// (crn.New, crn.Sweep, the sweepd daemon and workers) in one process,
// as a closed loop: the next operation is issued only after the
// previous one returns, with compute capped at nproc. It checks every
// operation's output and prints, as the last line of standard output,
// one JSON object with the keys correct, attempted, failed and
// metrics. A line before it reports the host fingerprint and the
// sample counts behind every figure.
//
// Run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload discovery-static --seed 1 --seconds 50 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (setup_s,
// op_p50_ms, op_p90_ms). With --trace 1 the
// loop alternates untraced and traced steps, the layer probes run, and
// the metrics are the per-layer ones plus trace.overhead_ratio; spans
// are written to .bench_build/spans/. --record stores the reference
// digest for the given workload and seed in perfbench/refs.json.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"
)

// refsJSON holds the committed reference digests: workload → seed →
// digest of the canonical aggregate JSON (sweep workloads) or of the
// in-process crn.Sweep bytes (service workload).
//
//go:embed refs.json
var refsJSON []byte

const refsPath = "perfbench/refs.json"

// Set-up is repeated and its median reported: at least minSetupReps
// times, and until setupBudget is spent or maxSetupReps is reached.
const (
	minSetupReps = 3
	maxSetupReps = 500
	setupBudget  = 3 * time.Second
	minSteps     = 2  // untraced steps, so each op's latency is a fastest of at least two
	minTracedOps = 20 // distinct ops per half of a traced run
	defaultSeed  = 1
	heldOutSeed  = 2
)

// runner is one workload.
type runner interface {
	// setupOnce builds the workload's inputs; it is what setup_s times.
	setupOnce(ctx context.Context) (time.Duration, error)
	// start prepares the measured loop from the last set-up.
	start(ctx context.Context) error
	// step issues one closed-loop step and checks its output.
	step(ctx context.Context) (stepResult, error)
	// reference is the digest every step's output must match.
	reference() string
	// probe runs the layer probes of a traced run.
	probe(ctx context.Context, m metricSet) error
	close() error
}

// stepResult is one step of the loop.
type stepResult struct {
	ops    []opSample
	parts  []opSample // wall time of each closed-loop call: a sweep, or a job
	failed int        // ops that errored or failed the output check
	runs   int        // primitive runs completed and checked
	digest string
}

// opSample is one op's latency. Ops with the same key repeat the same
// work in every step.
type opSample struct {
	key string
	ms  float64
}

// fastest keeps each op's lowest latency over the steps it ran in.
type fastest map[string]float64

func (f fastest) add(ops []opSample) {
	for _, op := range ops {
		if best, ok := f[op.key]; !ok || op.ms < best {
			f[op.key] = op.ms
		}
	}
}

func (f fastest) values() []float64 {
	out := make([]float64, 0, len(f))
	for _, ms := range f {
		out = append(out, ms)
	}
	return out
}

// report is the line printed before the result: what the figures rest on.
type report struct {
	Workload       string        `json:"workload"`
	Seed           uint64        `json:"seed"`
	Trace          int           `json:"trace"`
	Host           Host          `json:"host"`
	Reference      string        `json:"reference"` // committed or first-step
	SetupReps      int           `json:"setup_reps"`
	Steps          int           `json:"steps"`        // untraced steps: repeats of each op
	TracedSteps    int           `json:"traced_steps"` // traced steps (--trace 1)
	Ops            int           `json:"op_samples"`   // distinct ops behind op_p50_ms and op_p90_ms
	Parts          int           `json:"part_samples"` // distinct parts behind runs_per_s
	RunsPerS       float64       `json:"runs_per_s"`   // a step's runs ÷ the sum of its parts' fastest wall times
	P90Beyond      int           `json:"op_p90_samples_beyond,omitempty"`
	FailedOpsFrac  float64       `json:"failed_ops_frac"`
	MaxRSSMB       float64       `json:"max_rss_mb,omitempty"` // peak RSS (--trace 0)
	SpanFile       string        `json:"span_file,omitempty"`
	SpanSelfTimeMs []SpanSummary `json:"span_self_time,omitempty"`
}

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", wDiscovery, "workload: discovery-static, broadcast-dynamic or service-sweep")
	seed := fs.Uint64("seed", defaultSeed, "workload seed: every input is derived from it")
	seconds := fs.Int("seconds", 50, "how long the loop measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	record := fs.Bool("record", false, "store the reference digest for this workload and seed in "+refsPath)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !slices.Contains(workloadNames, *workload) {
		return fmt.Errorf("unknown workload %q (have %v)", *workload, workloadNames)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1")
	}
	if _, err := os.Stat(filepath.Join("perfbench", "go.mod")); err != nil {
		return fmt.Errorf("run from the root of the checkout: %w", err)
	}

	refs := make(map[string]map[string]string)
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		return fmt.Errorf("parsing the committed references: %w", err)
	}
	ref := refs[*workload][strconv.FormatUint(*seed, 10)]
	refSource := "committed"
	if ref == "" || *record {
		ref, refSource = "", "first step"
	}

	var rec *Recorder
	if *trace == 1 {
		rec = NewRecorder()
	}
	dir := spoolDir(".", *workload)
	defer os.RemoveAll(dir)
	// References are recorded on one worker and checked on nproc: the
	// sweep's bytes do not depend on its worker count.
	workers := nproc()
	if *record {
		workers = 1
	}
	var r runner
	if *workload == wService {
		r = newServiceRunner(*seed, ref, dir, workers, rec)
	} else {
		r = newSweepRunner(*workload, *seed, ref, dir, workers, rec)
	}
	ctx := context.Background()
	rep := report{Workload: *workload, Seed: *seed, Trace: *trace, Host: fingerprint("."), Reference: refSource}

	var setups []float64
	for t0 := time.Now(); rep.SetupReps < maxSetupReps && (rep.SetupReps < minSetupReps || time.Since(t0) < setupBudget); rep.SetupReps++ {
		d, err := r.setupOnce(ctx)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	rec.SetRecording(false)
	if err := r.start(ctx); err != nil {
		return errors.Join(fmt.Errorf("start: %w", err), r.close())
	}
	res, err := measure(ctx, r, rec, time.Duration(*seconds)*time.Second, *trace == 1, *record, &rep)
	if cerr := r.close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing: %w", cerr)
	}
	if err != nil {
		return err
	}
	if *record {
		if refs[*workload] == nil {
			refs[*workload] = make(map[string]string)
		}
		refs[*workload][strconv.FormatUint(*seed, 10)] = r.reference()
		doc, err := json.MarshalIndent(refs, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: recorded %s seed %d: %s\n", *workload, *seed, r.reference())
		return os.WriteFile(refsPath, append(doc, '\n'), 0o644)
	}
	rss, err := maxRSSMB()
	if err != nil {
		return err
	}
	if *trace == 0 {
		rep.P90Beyond = beyond(rep.Ops, 90)
		rep.MaxRSSMB = rss
		res.Metrics.set("setup_s", median(setups), "s")
	} else {
		res.Metrics.set("runtime.max_rss_mb", rss, "MiB")
		rep.SpanFile = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := rec.WriteFile(rep.SpanFile); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		rep.SpanSelfTimeMs = summarize(rec.Spans())
		if len(rep.SpanSelfTimeMs) > 12 {
			rep.SpanSelfTimeMs = rep.SpanSelfTimeMs[:12]
		}
	}
	rep.FailedOpsFrac = float64(res.Failed) / float64(res.Attempted)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rep); err != nil {
		return err
	}
	return enc.Encode(res)
}

// measure runs the closed loop until the time is up, at least
// minSteps untraced steps ran and enough distinct ops were measured.
// The host is shared and its speed swings within seconds, so each
// repeat of the same work reads differently; the fastest repeat is the
// one least disturbed by other load. Each op's latency is therefore
// its fastest over the steps, and throughput is a step's runs over the
// sum of its parts' fastest wall times (a part is one crn.Sweep call or
// one service job, a fraction of a second each). In a traced run, odd
// steps are traced and the layer probes follow the loop.
func measure(ctx context.Context, r runner, rec *Recorder, dur time.Duration, traced, record bool, rep *report) (*result, error) {
	res := &result{Metrics: metricSet{}}
	plain, tracedOps, parts := fastest{}, fastest{}, fastest{}
	stepRuns := 0
	needOps, needSteps := minSamples(90), minSteps
	if traced {
		needOps, needSteps = minTracedOps, 1
	}
	deadline := time.Now().Add(dur)
	for i := 0; ; i++ {
		on := traced && i%2 == 1
		rec.SetRecording(on)
		st, err := r.step(ctx)
		rec.SetRecording(false)
		if err != nil {
			return nil, err
		}
		res.Attempted += len(st.ops)
		res.Failed += st.failed
		if record {
			if st.failed > 0 {
				return nil, fmt.Errorf("the first step failed its output check; not recording")
			}
			return res, nil
		}
		if on {
			tracedOps.add(st.ops)
			rep.TracedSteps++
		} else {
			plain.add(st.ops)
			parts.add(st.parts)
			stepRuns = max(stepRuns, st.runs)
			rep.Steps++
		}
		if time.Now().After(deadline) && rep.Steps >= needSteps && len(plain) >= needOps && (!traced || len(tracedOps) >= needOps) {
			break
		}
	}
	rep.Ops = len(plain)
	rep.Parts = len(parts)
	var busy float64
	for _, ms := range parts {
		busy += ms
	}
	rep.RunsPerS = float64(stepRuns) / (busy / 1e3)
	res.Correct = res.Failed == 0
	if !traced {
		lat := plain.values()
		res.Metrics.set("op_p50_ms", percentile(lat, 50), "ms")
		res.Metrics.set("op_p90_ms", percentile(lat, 90), "ms")
		return res, nil
	}
	res.Metrics.set("sweep.runs_per_s", rep.RunsPerS, "1/s")
	res.Metrics.set("trace.overhead_ratio", percentile(tracedOps.values(), 50)/percentile(plain.values(), 50), "ratio")
	rec.SetRecording(true)
	defer rec.SetRecording(false)
	if err := r.probe(ctx, res.Metrics); err != nil {
		return nil, err
	}
	return res, nil
}
