// Command perfbench is smtavf's end-to-end benchmark: it drives the
// simulator through its public entry points on four workloads, checks
// every output, and prints one JSON result line. See README.md for the
// workloads, the metrics and how they relate.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload core-cpu --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// makes a traced run (CPU profile plus spans around each public call) and
// prints the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"syscall"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options parameterize one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// scale multiplies every workload's instruction budget; the smoke test
	// runs at a tiny fraction of the real length.
	scale float64
	// workDir holds the campaign stores and the traced run's spans and
	// profile; it lies inside the directory the benchmark runs from.
	workDir string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames()))
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured region in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&o.workDir, "work-dir", ".bench_build/perfbench-work", "scratch directory for stores, spans and profiles")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag))
	}
	o.trace = traceFlag == 1
	o.scale = 1
	if o.seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive"))
	}
	rep, err := run(o)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run executes one workload and assembles its report: end-to-end metrics
// untraced, or per-layer metrics from a traced run.
func run(o options) (*report, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames())
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	if !o.trace {
		m, err := w.measure(o, nil)
		if err != nil {
			return nil, err
		}
		fmt.Printf("digest %s seed=%d %#016x\n", o.workload, o.seed, m.digest)
		m.summary(os.Stdout)
		rep := m.report()
		rep.Metrics = m.endToEnd()
		return rep, nil
	}
	return traced(o, w)
}

// measurement is what one measured region of a workload produced.
type measurement struct {
	attempted, failed int
	digest            uint64

	points  int             // points completed
	setups  []time.Duration // set-up samples
	kipsOps []float64       // per-operation kips (core workloads)

	// Core workloads: set-up plus run time of each point.
	pointTime []time.Duration

	// Campaign: committed instructions, wall and process CPU time over the
	// measured region, and each matrix's POST-to-first-result time.
	insns    uint64
	wall     time.Duration
	cpu      float64
	firstRes []time.Duration
}

func (m *measurement) report() *report {
	return &report{
		Correct:   m.failed == 0 && m.attempted > 0,
		Attempted: m.attempted,
		Failed:    m.failed,
	}
}

// kips is the run's headline throughput in committed instructions per
// CPU second of the process: the median per-operation figure on the core
// workloads, or the total over the measured region on campaign. CPU time
// counts every thread, so garbage collection is charged, but not time the
// hypervisor stole from the virtual CPUs.
func (m *measurement) kips() float64 {
	if len(m.kipsOps) > 0 {
		return median(m.kipsOps)
	}
	return float64(m.insns) / m.cpu / 1e3
}

// summary prints the samples behind the medians.
func (m *measurement) summary(w io.Writer) {
	fmt.Fprintf(w, "points=%d first-result samples=%d kips/op=%.4g setup samples=%d min=%v max=%v\n",
		m.points, max(len(m.firstRes), len(m.pointTime)), m.kipsOps, len(m.setups), slices.Min(m.setups), slices.Max(m.setups))
}

// pointsPerSecond is the completion rate: over the whole measured region
// on campaign, where points overlap, and the inverse of the median point
// time on the core workloads, where they run one after another.
func (m *measurement) pointsPerSecond() float64 {
	if len(m.pointTime) > 0 {
		return 1 / medianDur(m.pointTime)
	}
	return float64(m.points) / m.wall.Seconds()
}

func (m *measurement) endToEnd() map[string]metric {
	first := m.firstRes
	if len(first) == 0 {
		first = m.pointTime
	}
	return map[string]metric{
		"kips":           {m.kips(), "kinsn/s"},
		"points_per_s":   {m.pointsPerSecond(), "points/s"},
		"first_result_s": {medianDur(first), "s"},
		"setup_s":        {medianDur(m.setups), "s"},
		"peak_rss_mb":    {peakRSSMiB(), "MiB"},
	}
}

// processCPU is the user plus system CPU time of the whole process.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}
