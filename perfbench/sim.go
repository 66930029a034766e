package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"smtavf"
	"smtavf/internal/digest"
	"smtavf/internal/pipetrace"
	"smtavf/internal/propagation"
	"smtavf/internal/telemetry"
)

// workload is one named set of inputs the benchmark runs.
type workload interface {
	// measure runs the workload for o.seconds and checks its outputs;
	// tr, when non-nil, receives spans and per-layer counts.
	measure(o options, tr *tracer) (*measurement, error)
}

// The four workloads. README.md records why each was chosen.
var workloads = map[string]workload{
	// Active-cycle work: IPC ≈ 5.7, almost no quiet cycles.
	"core-cpu": simWorkload{mix: "4ctx-CPU-A", policy: "ICOUNT", insns: 2_500_000},
	// Quiet cycles and wasted work: ≈2.3k cycles per kinsn, and FLUSH
	// fetches ≈4 uops per committed instruction.
	"core-mem-flush": simWorkload{mix: "8ctx-MEM-A", policy: "FLUSH", insns: 1_200_000},
	// Every monolithic observer attached, post-run analysis timed.
	"observed": simWorkload{mix: "4ctx-MIX-A", policy: "ICOUNT", insns: 60_000, observed: true},
	// The avfd request path over loopback HTTP.
	"campaign": campaignWorkload{},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setupSamples is how many simulators a run builds and discards to time
// set-up.
const setupSamples = 41

// Observer settings of the observed workload: the smtsim defaults
// (-inject-ci 0.01, -inject-strikes 1<<20, -propagation-strikes 256), with
// the flight recorder's record buffer capped so memory stays bounded
// (its provenance aggregation stays exact past the cap).
const (
	injectEvery       = 100
	injectCI          = 0.01
	injectMaxStrikes  = 1 << 20
	propagationStrike = 64
	propagationNodes  = 256
	pipeTraceCap      = 1 << 16
)

// simWorkload runs one Table 2 mix through smtavf.New / Simulator.Run.
type simWorkload struct {
	mix      string
	policy   string
	insns    uint64 // committed instructions measured after the warm-up prefix
	observed bool   // attach every monolithic observer; time the post-run analysis
}

// splitmix64 derives independent values from the benchmark seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// simSeed is the simulation seed a benchmark seed maps to (never 0).
func simSeed(seed, stream uint64) uint64 {
	if s := splitmix64(seed ^ splitmix64(stream)); s != 0 {
		return s
	}
	return 1
}

func scaled(n uint64, scale float64) uint64 {
	if v := uint64(float64(n) * scale); v > 0 {
		return v
	}
	return 1
}

func (w simWorkload) config(o options) (smtavf.Config, []string, error) {
	mix, err := smtavf.MixByName(w.mix)
	if err != nil {
		return smtavf.Config{}, nil, err
	}
	cfg := smtavf.DefaultConfig(mix.Contexts)
	cfg.Seed = simSeed(o.seed, 0)
	// A detailed warm-up prefix fills the modelled caches and predictors,
	// which start cold; its instructions count toward kips.
	cfg.Warmup = scaled(w.insns, o.scale) / 10
	if err := cfg.SetPolicy(w.policy); err != nil {
		return smtavf.Config{}, nil, err
	}
	return cfg, mix.Benchmarks, nil
}

// point is one built simulator and, on the observed workload, its
// observers.
type point struct {
	sim   *smtavf.Simulator
	cfg   smtavf.Config
	col   *smtavf.Telemetry
	camp  *smtavf.FaultCampaign
	prop  *smtavf.PropagationTracer
	stack *smtavf.CPIStack
	rec   *smtavf.PipeTrace
}

// build is the set-up a user pays before simulating: smtavf.New with the
// workload's observers.
func (w simWorkload) build(cfg smtavf.Config, benches []string, observed bool) (*point, error) {
	p := &point{cfg: cfg}
	opts := []smtavf.Option{smtavf.WithBenchmarks(benches...)}
	if observed {
		p.col = smtavf.NewTelemetry(smtavf.TelemetryOptions{})
		p.col.AddExporter(telemetry.NewJSONL(io.Discard))
		camp, err := smtavf.NewFaultCampaign(cfg, injectEvery, cfg.Seed)
		if err != nil {
			return nil, err
		}
		p.camp = camp
		p.camp.PublishTelemetry(p.col)
		p.prop = smtavf.NewPropagation(smtavf.PropagationOptions{MaxNodes: propagationNodes})
		p.prop.PublishTelemetry(p.col)
		p.stack = smtavf.NewCPIStack(smtavf.CPIStackOptions{})
		p.stack.PublishTelemetry(p.col)
		p.rec = smtavf.NewPipeTrace(smtavf.PipeTraceOptions{Cap: pipeTraceCap})
		opts = append(opts,
			smtavf.WithTelemetry(p.col),
			smtavf.WithFaultInjection(p.camp),
			smtavf.WithPropagation(p.prop),
			smtavf.WithCPIStack(p.stack),
			smtavf.WithPipeTrace(p.rec))
	}
	sim, err := smtavf.New(cfg, opts...)
	if err != nil {
		return nil, err
	}
	p.sim = sim
	return p, nil
}

// analyze is the post-run work an observed run's user pays for: the
// strike experiment and cross-validation, the propagation atlas, and every
// observer's export (encoded to io.Discard, so no disk time is measured).
// It returns when Tracer.Analyze started and ended.
func (p *point) analyze(res *smtavf.Results) (start, end time.Time, err error) {
	if err := p.col.Close(); err != nil {
		return start, end, fmt.Errorf("telemetry: %w", err)
	}
	if err := pipetrace.Write(io.Discard, smtavf.PipeTraceKanata, p.rec.Records()); err != nil {
		return start, end, fmt.Errorf("pipetrace: %w", err)
	}
	_ = p.rec.Provenance().FormatFates()
	if err := p.stack.WriteCSV(io.Discard); err != nil {
		return start, end, fmt.Errorf("cpistack: %w", err)
	}
	stats := p.camp.RunStrikes(res.Cycles, smtavf.StopWhen(injectCI, injectMaxStrikes))
	_ = smtavf.CrossValidate(smtavf.CrossValMeta{Cycles: res.Cycles, Every: injectEvery, Seed: p.cfg.Seed}, res, stats).Table()
	var strikes []smtavf.InjectStrike
	for _, s := range smtavf.Structs() {
		strikes = append(strikes, p.camp.SampleStrikes(s, res.Cycles, propagationStrike)...)
	}
	start = time.Now()
	atlas := p.prop.Analyze(strikes)
	end = time.Now()
	if atlas.Strikes != len(strikes) {
		return start, end, fmt.Errorf("propagation: atlas holds %d strikes, %d sampled", atlas.Strikes, len(strikes))
	}
	if err := propagation.WriteJSONL(io.Discard, atlas.Traces); err != nil {
		return start, end, fmt.Errorf("propagation: %w", err)
	}
	return start, end, nil
}

func (w simWorkload) measure(o options, tr *tracer) (*measurement, error) {
	cfg, benches, err := w.config(o)
	if err != nil {
		return nil, err
	}
	insns := scaled(w.insns, o.scale)
	m := &measurement{}

	// Set-up samples. Each follows a forced collection, so a collection
	// owed by earlier work is not charged to it.
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := w.build(cfg, benches, w.observed); err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(t0))
	}
	runtime.GC()

	have := false // m.digest holds the first operation's digest
	begin := time.Now()
	for m.attempted == 0 || time.Since(begin).Seconds() < o.seconds {
		m.attempted++
		// Each operation starts from a collected heap, so the previous
		// operation's garbage is neither charged to it nor stacked on its
		// memory high-water mark.
		runtime.GC()
		res, d, err := w.operation(o, tr, m, cfg, benches, insns)
		if err == nil {
			err = checkResults(res, insns, cfg.CommitWidth)
		}
		if err == nil && have && d != m.digest {
			err = fmt.Errorf("digest %#016x differs from the first run's %#016x", d, m.digest)
		}
		if err != nil {
			m.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s operation %d: %v\n", o.workload, m.attempted, err)
			continue
		}
		if !have {
			m.digest, have = d, true
		}
	}
	if !have {
		return m, nil
	}
	// The observers must not perturb the simulation: a detached run of the
	// same mix, seed and length must give the same digest.
	if w.observed {
		m.attempted++
		detached, err := w.detachedDigest(cfg, benches, insns)
		if err == nil && detached != m.digest {
			err = fmt.Errorf("detached digest %#016x, observed %#016x", detached, m.digest)
		}
		if err != nil {
			m.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s detached check: %v\n", o.workload, err)
		}
	}
	return m, nil
}

// operation builds, runs and (on observed) analyzes one point, recording
// its timings into m and tr.
func (w simWorkload) operation(o options, tr *tracer, m *measurement, cfg smtavf.Config, benches []string, insns uint64) (*smtavf.Results, uint64, error) {
	op := tr.id()
	start := time.Now()
	p, err := w.build(cfg, benches, w.observed)
	if err != nil {
		return nil, 0, err
	}
	built := time.Now()
	tr.span("setup", op, start, built)

	var before runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	cpuStart := processCPU()
	runStart := time.Now()
	res, err := p.sim.Run(insns)
	runEnd := time.Now()
	if err != nil {
		return nil, 0, err
	}
	tr.span("run", op, runStart, runEnd)
	if tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		tr.addRun(res, runEnd.Sub(runStart), cfg.Warmup, after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc)
	}
	end := runEnd
	if w.observed {
		postStart := time.Now()
		aStart, aEnd, err := p.analyze(res)
		end = time.Now()
		if err != nil {
			return nil, 0, err
		}
		tr.span("post-run", op, postStart, end)
		tr.span("analyze", op, aStart, aEnd)
	}
	cpu := processCPU() - cpuStart
	tr.record(op, 0, "point", start, end)

	m.pointTime = append(m.pointTime, end.Sub(start))
	m.kipsOps = append(m.kipsOps, float64(cfg.Warmup+res.Total)/cpu/1e3)
	m.points++
	return res, resultDigest(res), nil
}

func (w simWorkload) detachedDigest(cfg smtavf.Config, benches []string, insns uint64) (uint64, error) {
	p, err := w.build(cfg, benches, false)
	if err != nil {
		return 0, err
	}
	res, err := p.sim.Run(insns)
	if err != nil {
		return 0, err
	}
	return resultDigest(res), nil
}

// checkResults is the per-run output check: the run committed what was
// asked, and every AVF is a fraction.
func checkResults(res *smtavf.Results, want uint64, commitWidth int) error {
	// The stop rule is checked once per cycle, so a monolithic run may
	// commit up to commitWidth-1 instructions past the request.
	if res.Total < want || res.Total >= want+uint64(commitWidth) {
		return fmt.Errorf("committed %d instructions, requested %d", res.Total, want)
	}
	var errs []error
	for _, s := range smtavf.Structs() {
		if v := res.StructAVF(s); !(v >= 0 && v <= 1) {
			errs = append(errs, fmt.Errorf("%v AVF %v outside [0, 1]", s, v))
		}
		for tid := 0; tid < res.Threads; tid++ {
			if v := res.AVF.ThreadAVF(s, tid); !(v >= 0 && v <= 1) {
				errs = append(errs, fmt.Errorf("%v thread %d AVF %v outside [0, 1]", s, tid, v))
			}
		}
	}
	return errors.Join(errs...)
}

// resultDigest folds every reported figure of a run into one hash, with
// the same fold as hotloop_identity_test.go.
func resultDigest(res *smtavf.Results) uint64 {
	h := digest.New()
	h = digest.Mix(h, res.Cycles)
	h = digest.Mix(h, res.Total)
	for _, c := range res.Committed {
		h = digest.Mix(h, c)
	}
	for _, s := range smtavf.Structs() {
		h = digest.Mix(h, math.Float64bits(res.StructAVF(s)))
		for tid := 0; tid < res.Threads; tid++ {
			h = digest.Mix(h, math.Float64bits(res.AVF.ThreadAVF(s, tid)))
		}
	}
	return h
}
