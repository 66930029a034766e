// Command avfsweep runs a grid of simulations — fetch policies crossed
// with one structural parameter — and emits a CSV of performance and
// per-structure AVFs, for custom design-space studies beyond the paper's
// figures.
//
// Usage:
//
//	avfsweep -mix 4ctx-MIX-A -policies ICOUNT,STALL,FLUSH -param iq -values 48,96,192
//	avfsweep -bench gcc,mcf -policies ICOUNT -param regs -values 256,448,640
//	avfsweep -mix 4ctx-MIX-A -policies ICOUNT,FLUSH -telemetry-dir series/ -debug-addr :6060
//
// Long sweeps run unattended: -telemetry-dir records one cycle-windowed
// JSONL time-series per sweep point, -debug-addr serves live progress
// (/telemetry, /debug/metrics, /debug/progress, /debug/pprof/) for
// whichever point is currently running, and structured per-point progress
// logs go to stderr. With -obs-ledger every sweep point appends its own
// provenance manifest (kind "sweep-point") plus one "sweep" summary
// record at exit; -obs-heartbeat paces the point-completion heartbeats.
// ^C flushes the shared series/report streams and records the sweep
// manifest with status "interrupted" (docs/campaigns.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"smtavf"
	"smtavf/internal/cliopts"
	"smtavf/internal/jsonlio"
	"smtavf/internal/obs"
	"smtavf/internal/telemetry"
)

// shut coordinates graceful exit: the shared series/report streams and
// the sweep manifest append run exactly once whether the sweep finishes,
// fails, or catches ^C.
var shut cliopts.Shutdown

func main() {
	var (
		mixName  = flag.String("mix", "", "Table 2 mix name")
		benches  = flag.String("bench", "", "comma-separated benchmarks (alternative to -mix)")
		policies = flag.String("policies", "ICOUNT", "comma-separated fetch policies")
		param    = flag.String("param", "none", "structural parameter to sweep: none, iq, rob, lsq, regs, fetchq")
		values   = flag.String("values", "", "comma-separated parameter values")
		instrs   = flag.Uint64("instructions", 100_000, "instructions per run")
		warmup   = flag.Uint64("warmup", 50_000, "warmup instructions per run")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		dumpSpec = flag.Bool("dumpspec", false, "print the sweep's per-point campaign specs as a JSON array and exit")

		logFlags cliopts.Log
		tel      cliopts.Telemetry
		inj      cliopts.Inject
		shards   cliopts.Shards
		prof     cliopts.Profile
		obsFlags cliopts.Obs
	)
	logFlags.Register(flag.CommandLine)
	tel.Register(flag.CommandLine)
	tel.RegisterDir(flag.CommandLine)
	inj.Register(flag.CommandLine)
	shards.Register(flag.CommandLine)
	prof.Register(flag.CommandLine)
	obsFlags.Register(flag.CommandLine)
	flag.Parse()

	logger, err := logFlags.Logger(os.Stderr)
	if err != nil {
		fatal(err)
	}
	if err := tel.Validate(); err != nil {
		fatal(err)
	}
	if err := inj.Validate(); err != nil {
		fatal(err)
	}
	if err := shards.Validate(); err != nil {
		fatal(err)
	}
	if shards.Sharded() && (tel.Enabled() || inj.On) {
		fatal(fmt.Errorf("-shards is batch-only; drop -telemetry/-debug-addr/-inject"))
	}
	if err := obsFlags.Validate(shards.Sharded()); err != nil {
		fatal(err)
	}
	if obsFlags.Timeline != "" {
		fatal(fmt.Errorf("-obs-timeline records a single run's worker timeline; use smtsim -shards"))
	}
	if err := prof.Start(); err != nil {
		fatal(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "avfsweep:", err)
		}
	}()

	var names []string
	switch {
	case *mixName != "":
		m, err := smtavf.MixByName(*mixName)
		if err != nil {
			fatal(err)
		}
		names = m.Benchmarks
	case *benches != "":
		names = strings.Split(*benches, ",")
	default:
		fatal(fmt.Errorf("need -mix or -bench"))
	}

	vals := []int{0}
	if *values != "" {
		vals = vals[:0]
		for _, v := range strings.Split(*values, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil {
				fatal(fmt.Errorf("bad value %q: %w", v, err))
			}
			vals = append(vals, n)
		}
	} else if *param != "none" {
		fatal(fmt.Errorf("-param %s needs -values", *param))
	}

	pols := strings.Split(*policies, ",")
	if *dumpSpec {
		var specs []smtavf.CampaignSpec
		for _, pol := range pols {
			for _, v := range vals {
				spec, err := pointSpec(*mixName, names, strings.TrimSpace(pol), *param, v, *seed, *warmup, *instrs, shards)
				if err != nil {
					fatal(err)
				}
				spec.V = smtavf.CampaignSpecVersion
				specs = append(specs, spec)
			}
		}
		data, err := json.MarshalIndent(specs, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	}

	if tel.Dir != "" {
		if err := os.MkdirAll(tel.Dir, 0o755); err != nil {
			fatal(err)
		}
	}
	// A single shared series file spanning every point: each point's
	// collector closes its own exporters, so the shared one is wrapped to
	// ignore those Closes and is flushed once at the end.
	var shared *sharedExporter
	if tel.Path != "" {
		exp, err := telemetry.Create(tel.Path)
		if err != nil {
			fatal(err)
		}
		shared = &sharedExporter{exp: exp}
		shut.Defer("telemetry", shared.close)
	}
	// One combined cross-validation JSONL across every sweep point.
	var reportW io.WriteCloser
	if inj.Report != "" {
		reportW, err = jsonlio.OpenWriter(inj.Report)
		if err != nil {
			fatal(err)
		}
		shut.Defer("inject-report", reportW.Close)
	}
	campSeed := inj.CampaignSeed(*seed)

	points := len(pols) * len(vals)
	telemetry.RunManifest(logger, "avfsweep", smtavf.DefaultConfig(len(names)), *seed, names,
		"policies", *policies,
		"param", *param,
		"values", *values,
		"instructions", *instrs,
		"warmup", *warmup,
		"points", points,
	)

	// Campaign observability: one registry and one progress tracker span
	// the whole sweep — the registry reflects whichever point is running,
	// the progress phase counts completed points — and the ledger gets one
	// "sweep-point" manifest per point plus a "sweep" summary at exit.
	reg := smtavf.NewMetricsRegistry()
	prog := smtavf.NewProgress(smtavf.ProgressOptions{
		Logger:    logger,
		Heartbeat: obsFlags.HeartbeatInterval(),
		Registry:  reg,
	})
	prog.Phase("sweep", uint64(points))
	ledger, err := obsFlags.OpenLedger()
	if err != nil {
		fatal(err)
	}
	sweepMan := obs.NewManifest("sweep", "avfsweep")
	sweepMan.Seed = *seed
	sweepMan.Workloads = names
	sweepMan.Shards = shards.N
	sweepMan.Extra = map[string]string{"policies": *policies, "param": *param, "values": *values}
	if inj.On {
		sweepMan.CampaignSeed = campSeed
	}
	sweepMan.AddArtifact("telemetry", tel.Path)
	sweepMan.AddArtifact("crossval", inj.Report)
	var pointsDone int
	shut.Final(func(status string) {
		sweepMan.Extra["points_done"] = strconv.Itoa(pointsDone)
		sweepMan.Finish(status, nil)
		if err := ledger.Append(sweepMan); err != nil {
			logger.Error("run ledger append", "path", ledger.Path(), "err", err)
		}
	})
	shut.Install(logger)

	// CSV header.
	fmt.Printf("policy,%s,ipc", *param)
	for _, s := range smtavf.Structs() {
		fmt.Printf(",%s_avf", strings.ToLower(s.String()))
	}
	fmt.Println()

	var dbg *telemetry.DebugServer
	defer func() {
		if dbg != nil {
			dbg.Close()
		}
	}()
	sweepStart := time.Now()
	var cyclesSum uint64
	point := 0
	for _, pol := range pols {
		pol = strings.TrimSpace(pol)
		for _, v := range vals {
			point++
			// Each point is one campaign spec: workload, policy, seed, and
			// (when sweeping a structural parameter) a machine override.
			spec, err := pointSpec(*mixName, names, pol, *param, v, *seed, *warmup, *instrs, shards)
			if err != nil {
				fatal(err)
			}
			cfg, err := smtavf.SpecConfig(spec)
			if err != nil {
				fatal(err)
			}
			opts, err := smtavf.SpecOptions(spec)
			if err != nil {
				fatal(err)
			}
			// Registry only: the sweep loop owns the progress phase
			// (points completed), so per-point runs must not reset it.
			opts = append(opts, smtavf.WithObservability(&smtavf.Observability{Registry: reg, Program: "avfsweep"}))
			pm := obs.NewManifest("sweep-point", "avfsweep")
			pm.ConfigDigest = obs.ConfigDigest(cfg)
			pm.Seed = *seed
			pm.Policy = pol
			pm.Workloads = names
			pm.Shards = shards.N
			pm.Extra = map[string]string{"param": *param, "value": strconv.Itoa(v)}
			if inj.On {
				pm.CampaignSeed = campSeed
			}

			// One fresh collector (and series file) per sweep point; the
			// debug server follows the point currently running.
			var col *smtavf.Telemetry
			if tel.Enabled() {
				col = smtavf.NewTelemetry(smtavf.TelemetryOptions{WindowCycles: tel.Window, Registry: reg})
				if shared != nil {
					col.AddExporter(shared)
				}
				if tel.Dir != "" {
					series := filepath.Join(tel.Dir, pointName(pol, *param, v))
					exp, err := telemetry.Create(series)
					if err != nil {
						fatal(err)
					}
					col.AddExporter(exp)
					pm.AddArtifact("telemetry", series)
				}
				opts = append(opts, smtavf.WithTelemetry(col))
			}
			var camp *smtavf.FaultCampaign
			if inj.On {
				camp, err = smtavf.NewFaultCampaign(cfg, inj.Every, campSeed)
				if err != nil {
					fatal(err)
				}
				camp.PublishTelemetry(col)
				opts = append(opts, smtavf.WithFaultInjection(camp))
			}
			sim, err := smtavf.New(cfg, opts...)
			if err != nil {
				fatal(err)
			}
			if tel.DebugAddr != "" && col != nil {
				if dbg == nil {
					dbg, err = telemetry.ServeDebug(tel.DebugAddr, col, logger)
					if err != nil {
						fatal(err)
					}
					dbg.SetProgress(prog)
				} else {
					dbg.SetCollector(col)
				}
			}

			start := time.Now()
			res, err := sim.Run(*instrs)
			if err != nil {
				fatal(fmt.Errorf("%s %s=%d: %w", pol, *param, v, err))
			}
			if cerr := col.Close(); cerr != nil {
				fatal(fmt.Errorf("telemetry: %w", cerr))
			}
			pm.Cycles, pm.Instructions = res.Cycles, res.Total
			if camp != nil {
				stats := camp.RunStrikes(res.Cycles, smtavf.StopWhen(inj.CI, inj.Strikes))
				pm.Strikes = stats.TotalStrikes
				rep := smtavf.CrossValidate(smtavf.CrossValMeta{
					Workload: strings.Join(names, "+"),
					Policy:   pol,
					Seed:     campSeed,
					Every:    inj.Every,
					Cycles:   res.Cycles,
				}, res, stats)
				logger.Info("inject crossval",
					"point", point,
					"policy", pol,
					"param", *param,
					"value", v,
					"strikes", stats.TotalStrikes,
					"stopped_early", stats.StoppedEarly,
					"pass", rep.Pass(),
					"failed", len(rep.Failed()),
				)
				if reportW != nil {
					if err := rep.WriteJSONL(reportW); err != nil {
						fatal(fmt.Errorf("inject-report: %w", err))
					}
				}
			}
			pm.Finish(obs.StatusOK, nil)
			if err := ledger.Append(pm); err != nil {
				fatal(fmt.Errorf("obs-ledger: %w", err))
			}
			pointsDone = point
			cyclesSum += res.Cycles
			sweepMan.Cycles += res.Cycles
			sweepMan.Instructions += res.Total
			sweepMan.Strikes += pm.Strikes
			prog.Observe(uint64(point), cyclesSum)
			logger.Info("sweep point",
				"point", point,
				"of", points,
				"policy", res.Policy,
				"param", *param,
				"value", v,
				"ipc", fmt.Sprintf("%.4f", res.IPC()),
				"cycles", res.Cycles,
				"windows", col.Windows(),
				"elapsed", time.Since(start).Round(time.Millisecond).String(),
			)
			fmt.Printf("%s,%d,%.4f", res.Policy, v, res.IPC())
			for _, s := range smtavf.Structs() {
				fmt.Printf(",%.4f", res.StructAVF(s))
			}
			fmt.Println()
		}
	}
	logger.Info("sweep complete",
		"points", point,
		"elapsed", time.Since(sweepStart).Round(time.Millisecond).String(),
	)
	shut.Finish(obs.StatusOK, logger)
}

// sharedExporter is one exporter living across every sweep point: each
// point's collector Close would close its exporters, so Close is deferred
// to the end of the sweep (close). The mutex serializes Export against
// close — the SIGINT handler flushes from its own goroutine while a
// point's collector may still be exporting windows.
type sharedExporter struct {
	mu     sync.Mutex
	exp    telemetry.Exporter
	closed bool
}

func (s *sharedExporter) Export(w telemetry.Window) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.exp.Export(w)
}

func (s *sharedExporter) Close() error { return nil }

func (s *sharedExporter) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.exp.Close()
}

// pointSpec resolves one sweep point to a campaign spec: the workload
// and policy axes plus, for a swept structural parameter, a machine
// override carrying the applied value. The specs -dumpspec prints are
// exactly what the loop runs.
func pointSpec(mix string, names []string, pol, param string, v int, seed, warmup, instrs uint64, shards cliopts.Shards) (smtavf.CampaignSpec, error) {
	spec := smtavf.CampaignSpec{
		Policy:       pol,
		Seed:         seed,
		Instructions: instrs,
		Warmup:       warmup,
		Shards:       shards.N,
		ShardWorkers: shards.Workers,
	}
	if mix != "" {
		spec.Mix = mix
	} else {
		spec.Benchmarks = names
	}
	if param != "none" {
		machine := smtavf.DefaultConfig(len(names))
		if err := apply(&machine, param, v); err != nil {
			return spec, err
		}
		spec.Machine = &machine
	}
	return spec, nil
}

// pointName is the telemetry series filename of one sweep point.
func pointName(policy, param string, v int) string {
	if param == "none" {
		return policy + ".jsonl"
	}
	return fmt.Sprintf("%s_%s%d.jsonl", policy, param, v)
}

// apply sets the swept structural parameter.
func apply(cfg *smtavf.Config, param string, v int) error {
	switch param {
	case "none":
		return nil
	case "iq":
		cfg.IQSize = v
	case "rob":
		cfg.ROBSize = v
	case "lsq":
		cfg.LSQSize = v
	case "regs":
		cfg.IntPhysRegs, cfg.FPPhysRegs = v, v
	case "fetchq":
		cfg.FetchQueue = v
	default:
		return fmt.Errorf("unknown -param %q (want none, iq, rob, lsq, regs, fetchq)", param)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "avfsweep:", err)
	shut.Finish(obs.StatusError, nil)
	os.Exit(1)
}
