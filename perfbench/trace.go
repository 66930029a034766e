package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"smtavf"
	"smtavf/internal/core"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public entry point it calls.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the traced region began
	End    float64 `json:"end_s"`
}

// tracer collects a traced run's spans and per-layer counts in memory;
// every method is a no-op on a nil tracer, which is how untraced runs
// measure.
type tracer struct {
	origin time.Time

	mu     sync.Mutex
	spans  []span
	nextID int

	// Summed over the traced simulator runs.
	runTime           time.Duration
	warmup, committed uint64 // committed = measured window, warmup = prefix
	cycles            uint64
	mallocs, allocB   uint64
	stats             core.ThreadStats
	dl1Acc, dl1Miss   uint64
	l2Miss            uint64
	workers           int           // campaign executor workers
	wall              time.Duration // campaign measured region
	execTime          time.Duration // summed campaign executor time
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// id reserves a span id, so a parent can be recorded after its children.
func (t *tracer) id() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

func (t *tracer) record(id, parent int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.origin).Seconds(), End: end.Sub(t.origin).Seconds()})
}

func (t *tracer) span(name string, parent int, start, end time.Time) {
	t.record(t.id(), parent, name, start, end)
}

// addRun folds one traced Simulator.Run into the core-layer counts.
func (t *tracer) addRun(res *smtavf.Results, d time.Duration, warmup, mallocs, allocB uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runTime += d
	t.warmup += warmup
	t.committed += res.Total
	t.cycles += res.Cycles
	t.mallocs += mallocs
	t.allocB += allocB
	for _, ts := range res.Thread {
		t.stats = t.stats.Plus(ts)
	}
	t.dl1Acc += res.Counters.DL1Accesses
	t.dl1Miss += res.Counters.DL1Misses
	t.l2Miss += res.Counters.L2Misses
}

// medianSpan is the median duration of the spans with the given name.
func (t *tracer) medianSpan(name string) float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, s.End-s.Start)
		}
	}
	return median(ds)
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// coreStages are the Processor methods whose inclusive profile share the
// core layer reports.
var coreStages = []struct{ metric, fn string }{
	{"core.commit_share", "(*Processor).commit"},
	{"core.writeback_share", "(*Processor).writeback"},
	{"core.issue_share", "(*Processor).issue"},
	{"core.dispatch_share", "(*Processor).dispatch"},
	{"core.fetch_share", "(*Processor).fetchStage"},
	{"core.cpiaccount_share", "(*Processor).cpiAccount"},
}

// selfLayers maps internal packages onto their layer-share metrics.
var selfLayers = []string{"trace", "pipeline", "branch", "mem", "avf",
	"telemetry", "pipetrace", "cpistack", "inject", "propagation"}

// gcFrames mark samples spent collecting garbage.
func gcFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.markroot") ||
		fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" || fn == "runtime.sweepone"
}

// traced makes the traced run: the workload measured untraced, then again
// under a CPU profile with spans and counts, and returns the per-layer
// metrics with the tracing overhead. Spans and the profile are written to
// o.workDir for inspection with go tool pprof.
func traced(o options, w workload) (*report, error) {
	off, err := w.measure(o, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	on, err := w.measure(o, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	base := filepath.Join(o.workDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if err := os.WriteFile(base+".pprof", prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := tr.write(base + ".spans.jsonl"); err != nil {
		return nil, err
	}
	fmt.Printf("traced %s seed=%d: %d profile samples, %d spans in %s.{pprof,spans.jsonl}\n",
		o.workload, o.seed, p.total, len(tr.spans), base)

	metrics := map[string]metric{}
	put := func(name, unit string, v float64) { metrics[name] = metric{v, unit} }
	for _, st := range coreStages {
		suffix := st.fn
		put(st.metric, "ratio", p.share(inclusive(func(fn string) bool {
			return strings.HasPrefix(fn, "smtavf/internal/core.") && strings.HasSuffix(fn, suffix)
		})))
	}
	self := map[string]int64{}
	for i, st := range p.stacks {
		self[selfLayer(st)] += p.counts[i]
	}
	for _, l := range selfLayers {
		v := 0.0
		if p.total > 0 {
			v = float64(self[l]) / float64(p.total)
		}
		put(l+".share", "ratio", v)
	}
	put("runtime.gc_share", "ratio", p.share(inclusive(gcFrame)))
	put("shard.warmup_share", "ratio", p.share(inclusive(func(fn string) bool {
		return fn == "smtavf/internal/core.(*Processor).FunctionalWarmup"
	})))
	put("campaign.store_share", "ratio", p.share(inclusive(func(fn string) bool {
		return strings.HasPrefix(fn, "smtavf/internal/campaign.(*Store)")
	})))
	put("campaign.json_share", "ratio", p.share(func(stack []string) bool {
		return inclusive(func(fn string) bool { return funcPackage(fn) == "encoding/json" })(stack) &&
			inclusive(func(fn string) bool { return funcPackage(fn) == "smtavf/internal/campaign" })(stack)
	}))

	// Counts from the simulator's own statistics. The warm-up prefix's
	// cycles are not reported, so host time per cycle or uop charges Run
	// time to the measured window in proportion to its instructions.
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	committed := float64(tr.committed)
	all := committed + float64(tr.warmup)
	measuredNs := float64(tr.runTime.Nanoseconds()) * ratio(committed, all)
	st := tr.stats
	put("core.ns_per_cycle", "ns", ratio(measuredNs, float64(tr.cycles)))
	put("core.cycles_per_kinsn", "cycles/kinsn", ratio(1e3*float64(tr.cycles), committed))
	put("core.allocs_per_kinsn", "allocs/kinsn", ratio(1e3*float64(tr.mallocs), all))
	put("core.alloc_bytes_per_insn", "B/insn", ratio(float64(tr.allocB), all))
	put("fetch.ns_per_uop", "ns", ratio(measuredNs, float64(st.Fetched)))
	put("fetch.uops_per_insn", "uops/insn", ratio(float64(st.Fetched), committed))
	put("fetch.wrong_path_frac", "ratio", ratio(float64(st.WrongPathFetch), float64(st.Fetched)))
	put("pipeline.squashed_per_insn", "uops/insn", ratio(float64(st.SquashedUops), committed))
	put("branch.mispredict_rate", "ratio", ratio(float64(st.Mispredicts), float64(st.Branches)))
	put("mem.dl1_miss_rate", "ratio", ratio(float64(tr.dl1Miss), float64(tr.dl1Acc)))
	put("mem.l2_mpki", "misses/kinsn", ratio(1e3*float64(tr.l2Miss), committed))

	put("propagation.analyze_s", "s", tr.medianSpan("analyze"))
	put("campaign.submit_s", "s", tr.medianSpan("submit"))
	put("campaign.queue_wait_s", "s", tr.medianSpan("queue"))
	put("campaign.exec_s", "s", tr.medianSpan("exec"))
	put("campaign.deliver_s", "s", tr.medianSpan("deliver"))
	put("campaign.worker_busy_frac", "ratio",
		ratio(tr.execTime.Seconds(), float64(tr.workers)*tr.wall.Seconds()))

	kipsOff, kipsOn := off.kips(), on.kips()
	put("tracing.kips_off", "kinsn/s", kipsOff)
	put("tracing.kips_on", "kinsn/s", kipsOn)
	put("tracing.overhead", "ratio", ratio(kipsOff, kipsOn)-1)

	// Tracing must not change what is simulated.
	failed := off.failed + on.failed
	if off.digest != on.digest {
		failed++
		fmt.Fprintf(os.Stderr, "perfbench: traced digest %#016x differs from untraced %#016x\n", on.digest, off.digest)
	}
	rep := &report{
		Correct:   failed == 0,
		Attempted: off.attempted + on.attempted,
		Failed:    failed,
		Metrics:   metrics,
	}
	fmt.Printf("digest %s seed=%d %#016x\n", o.workload, o.seed, on.digest)
	return rep, nil
}
