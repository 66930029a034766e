// Command smtsim runs one SMT workload on the simulated machine and prints
// its performance and per-structure AVF report.
//
// Usage:
//
//	smtsim -mix 4ctx-MEM-A -policy FLUSH -instructions 100000
//	smtsim -bench mcf,twolf -policy ICOUNT -instructions 50000
//	smtsim -mix 4ctx-MIX-A -telemetry run.jsonl -telemetry-window 10000
//	smtsim -mix 4ctx-MIX-A -instructions 10000000 -debug-addr :6060
//	smtsim -mix 4ctx-MIX-A -instructions 10000000 -shards 8 -shard-workers 4
//	smtsim -spec run.json
//	smtsim -mix 4ctx-MIX-A -policy FLUSH -dumpspec > run.json
//	smtsim -spec sweep.json > results.jsonl
//
// The workload, policy, seed, machine override, and shard shape resolve
// into one versioned campaign spec (docs/campaign-service.md): -dumpspec
// prints it, -spec loads one instead of the per-axis flags, and the same
// JSON submits to the avfd campaign service unchanged. Observer flags
// (-telemetry, -pipetrace, -cpistack, -obs-*) layer on top of a loaded
// spec rather than living inside it.
//
// A -spec file with a "base" key is a campaign matrix: the base spec
// fanned out over mixes, policies, machine patches, and seeds. A matrix
// file, or a spec of an experiment kind (crossval, propagation,
// explain), runs each point in order through the executor avfd uses and
// prints one Result JSON line per point, byte-identical to avfd's stream
// for the same matrix apart from the campaign ID. Such a run takes no
// observer flags; -obs-ledger appends one manifest per point, and
// -dumpspec prints the expanded points with avfd's defaults (warmup,
// budget, -shards) written in, so one saved and rerun alone with
// observer flags simulates exactly the run behind its Result line.
//
// With -shards N the run is split into N deterministic intervals per
// thread and simulated in parallel; committed-instruction counts stay
// exact and per-structure AVFs agree with the monolithic run within the
// documented tolerance (docs/sharding.md). Sharded runs cannot carry the
// -telemetry series, -pipetrace, or -inject observers — those sample the
// cycle timeline — but -debug-addr and the -obs-* campaign observability
// work on both paths.
//
// With -telemetry the run emits a cycle-windowed time-series (JSONL, or
// CSV if the path ends in .csv); with -debug-addr a live HTTP server
// exposes /telemetry, /debug/metrics (OpenMetrics), /debug/progress, and
// /debug/pprof/ while the run is in flight.
// Structured progress logs go to stderr (-log-level, -log-json).
//
// With -obs-ledger every run appends a provenance manifest — config
// digest, seeds, workloads, cycle/strike counts, the index of every
// artifact it wrote, exit status — to an append-only runs.jsonl; list it
// with `avfreport -runs`. -obs-heartbeat paces the progress heartbeat
// lines, and on a sharded run -obs-timeline writes the per-worker
// utilization timeline as Chrome trace_event JSON (.gz compresses;
// docs/campaign-service.md).
// ^C flushes and closes every exporter, then records the manifest with
// status "interrupted" instead of truncating gzip output mid-block.
//
// With -pipetrace the run additionally records every uop's pipeline
// lifecycle and writes it as a Kanata log (.kanata/.kan, opens in Konata),
// a Chrome trace_event JSON (.json, opens in chrome://tracing or
// Perfetto), or compact JSONL (anything else; .gz compresses):
//
//	smtsim -bench mcf,gcc -instructions 20000 -pipetrace run.kanata
//	smtsim -mix 4ctx-MIX-A -pipetrace run.jsonl.gz -pipetrace-window 50000:70000
//	smtsim -bench mcf,gcc -pipetrace-top 10
//
// -pipetrace-top prints the AVF provenance report: the top-N static
// instructions by ACE bit-cycles in each pipeline structure, plus the
// residency-by-fate breakdown.
//
// With -cpistack the run attributes every thread-cycle to a CPI-stack
// component and decomposes structure occupancy by ACE fate, printing both
// tables after the run; -cpistack-out writes the windowed series (.csv
// CSV, .json Chrome trace_event counters, else JSONL; docs/cpistack.md):
//
//	smtsim -bench mcf,gcc -instructions 20000 -cpistack
//	smtsim -mix 2ctx-MIX-A -policy FLUSH -cpistack-out stacks.jsonl
//
// With -inject -propagation the run additionally taint-tracks sampled
// strikes through the recorded dataflow and prints the fault-propagation
// atlas — root-cause instructions, hop histograms per edge type, and the
// cross-thread contamination matrix; -propagation-out writes the
// per-strike traces as JSONL (docs/propagation.md):
//
//	smtsim -bench mcf,gcc -instructions 20000 -inject -propagation
//	smtsim -mix 4ctx-MIX-A -inject -propagation-out atlas.jsonl.gz
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"smtavf"
	"smtavf/internal/campaign"
	"smtavf/internal/cliopts"
	"smtavf/internal/experiments"
	"smtavf/internal/inject"
	"smtavf/internal/jsonlio"
	"smtavf/internal/obs"
	"smtavf/internal/pipetrace"
	"smtavf/internal/propagation"
	"smtavf/internal/telemetry"
)

// shut coordinates graceful exit: exporter closers and the run-manifest
// append run exactly once whether the run finishes, fails, or catches ^C.
var shut cliopts.Shutdown

func main() {
	var (
		mixName  = flag.String("mix", "", "Table 2 mix name, e.g. 4ctx-MEM-A")
		benches  = flag.String("bench", "", "comma-separated benchmark names (alternative to -mix)")
		traces   = flag.String("trace", "", "comma-separated trace files recorded by tracegen (alternative to -mix/-bench)")
		policy   = flag.String("policy", "ICOUNT", "fetch policy: ICOUNT, STALL, FLUSH, DG, PDG, DWarn, STALLP")
		instrs   = flag.Uint64("instructions", 100_000, "total instructions to simulate")
		warmup   = flag.Uint64("warmup", 0, "instructions committed before measurement begins")
		phases   = flag.Uint64("phases", 0, "sample per-interval IPC/AVF every N cycles (0 = off)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		list     = flag.Bool("list", false, "list available mixes and benchmarks, then exit")
		cfgPath  = flag.String("config", "", "JSON machine configuration to load (overrides defaults; Threads is set from the workload)")
		dumpCfg  = flag.Bool("dumpconfig", false, "print the effective machine configuration as JSON and exit")
		specPath = flag.String("spec", "", "load the run from this campaign spec or matrix JSON file instead of the workload/policy flags (observer flags still apply to a single plain run)")
		dumpSpec = flag.Bool("dumpspec", false, "print the effective campaign spec as JSON and exit (submit it to avfd or rerun with -spec); for a matrix -spec, its expanded points")
		asJSON   = flag.Bool("json", false, "emit the full results as JSON")

		logFlags cliopts.Log
		tel      cliopts.Telemetry
		inj      cliopts.Inject
		prop     cliopts.Propagation
		pt       cliopts.PipeTrace
		cpi      cliopts.CPIStack
		shards   cliopts.Shards
		prof     cliopts.Profile
		obsFlags cliopts.Obs
	)
	logFlags.Register(flag.CommandLine)
	tel.Register(flag.CommandLine)
	inj.Register(flag.CommandLine)
	prop.Register(flag.CommandLine)
	pt.Register(flag.CommandLine)
	cpi.Register(flag.CommandLine)
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
	if err := prop.Validate(); err != nil {
		fatal(err)
	}
	if err := cpi.Validate(); err != nil {
		fatal(err)
	}
	if err := shards.Validate(); err != nil {
		fatal(err)
	}
	if err := prof.Start(); err != nil {
		fatal(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "smtsim:", err)
		}
	}()

	if *list {
		fmt.Println("Table 2 mixes:")
		for _, m := range smtavf.Mixes() {
			fmt.Printf("  %-12s %s\n", m.Name(), strings.Join(m.Benchmarks, ", "))
		}
		fmt.Println("benchmarks:", strings.Join(smtavf.Benchmarks(), ", "))
		return
	}

	// Resolve the run to one versioned campaign spec: either loaded from
	// -spec, or assembled from the per-axis flags. Everything downstream —
	// machine config, workload sources, shard shape, the strike campaign —
	// derives from the spec, so a run submitted to avfd and a run typed
	// here resolve identically.
	var spec smtavf.CampaignSpec
	if *specPath != "" {
		points, matrix, err := campaign.ReadFile(*specPath)
		if err != nil {
			fatal(err)
		}
		// Unset knobs take avfd's defaults, written into each point.
		runner := experiments.NewRunner(experiments.Options{Shards: shards.N, ShardWorkers: shards.Workers})
		for i := range points {
			if points[i], err = runner.Pin(points[i]); err != nil {
				fatal(err)
			}
		}
		if *dumpSpec {
			var v any = points[0]
			if matrix {
				v = points
			}
			printJSON(v)
			return
		}
		// A matrix, or an experiment kind, executes point by point
		// exactly as avfd would; one plain spec keeps the observer path.
		if matrix || points[0].Kind() != campaign.KindRun {
			if err := runPoints(*specPath, points, runner, &obsFlags, logger); err != nil {
				fatal(err)
			}
			return
		}
		spec = points[0]
		// The spec's knobs replace the corresponding flags.
		shards.N, shards.Workers = spec.Shards, spec.ShardWorkers
		if shards.N < 1 {
			shards.N = 1
		}
		if spec.Inject != nil {
			inj.On = true
			inj.Every, inj.Seed = spec.Inject.Every, spec.Inject.Seed
		}
	} else {
		spec = smtavf.CampaignSpec{
			Mix:           *mixName,
			Policy:        *policy,
			Seed:          *seed,
			Instructions:  *instrs,
			Warmup:        *warmup,
			PhaseInterval: *phases,
			Shards:        shards.N,
			ShardWorkers:  shards.Workers,
		}
		if *benches != "" {
			spec.Benchmarks = strings.Split(*benches, ",")
		}
		if *traces != "" {
			spec.TraceFiles = strings.Split(*traces, ",")
		}
		if spec.Mix == "" && spec.Benchmarks == nil && spec.TraceFiles == nil {
			fatal(fmt.Errorf("need -mix, -bench, -trace, or -spec (try -list)"))
		}
		if *cfgPath != "" {
			data, err := os.ReadFile(*cfgPath)
			if err != nil {
				fatal(err)
			}
			machine, err := campaign.OverlayMachine(nil, spec.Threads(), data)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", *cfgPath, err))
			}
			spec.Machine = &machine
		}
	}
	if inj.On && spec.Inject == nil {
		spec.Inject = &campaign.InjectSpec{
			Every: inj.Every,
			Seed:  inj.Seed,
			Stop:  inject.Stop{HalfWidth: inj.CI, MaxStrikes: inj.Strikes},
		}
	}
	if err := inj.Validate(); err != nil {
		fatal(err)
	}
	if prop.Enabled() && !inj.On {
		fatal(fmt.Errorf("-propagation needs the strike campaign: pass -inject"))
	}
	if err := obsFlags.Validate(shards.Sharded()); err != nil {
		fatal(err)
	}

	if *dumpSpec {
		spec.V = smtavf.CampaignSpecVersion
		printJSON(spec)
		return
	}

	cfg, err := smtavf.SpecConfig(spec)
	if err != nil {
		fatal(err)
	}
	if *dumpCfg {
		printJSON(cfg)
		return
	}
	opts, err := smtavf.SpecOptions(spec)
	if err != nil {
		fatal(err)
	}

	// Campaign observability: the metrics registry behind /debug/metrics,
	// the progress tracker behind the heartbeats and /debug/progress, and
	// the run ledger. The manifest is authored here — not by the facade —
	// so it can index every artifact this command writes; the Final hook
	// appends it once, whatever way the process exits.
	reg := smtavf.NewMetricsRegistry()
	prog := smtavf.NewProgress(smtavf.ProgressOptions{
		Logger:    logger,
		Heartbeat: obsFlags.HeartbeatInterval(),
		Registry:  reg,
	})
	ledger, err := obsFlags.OpenLedger()
	if err != nil {
		fatal(err)
	}
	opts = append(opts, smtavf.WithObservability(&smtavf.Observability{
		Registry: reg,
		Progress: prog,
		Program:  "smtsim",
	}))
	workloads := spec.WorkloadIDs()
	man := obs.NewManifest("run", "smtsim")
	man.ConfigDigest = obs.ConfigDigest(cfg)
	man.Seed = cfg.Seed
	man.Policy = spec.PolicyName()
	man.Workloads = workloads
	man.Shards = shards.N
	if spec.Mix != "" {
		man.Extra = map[string]string{"mix": spec.Mix}
	}
	var (
		runRes   *smtavf.Results
		runStats *smtavf.InjectStats
	)
	shut.Final(func(status string) {
		if runRes != nil {
			man.Cycles, man.Instructions = runRes.Cycles, runRes.Total
		}
		if runStats != nil {
			man.Strikes = runStats.TotalStrikes
		}
		man.Finish(status, nil)
		if err := ledger.Append(man); err != nil {
			logger.Error("run ledger append", "path", ledger.Path(), "err", err)
		}
	})
	shut.Install(logger)

	// Telemetry: a collector when a series file or the debug server is
	// requested; the built-in ring buffer backs the /telemetry endpoint.
	// A sharded run has no cycle timeline to sample, so the collector is
	// not attached there — it still carries the registry and progress
	// tracker for the debug server, which is how a sharded -debug-addr
	// serves live pool metrics and shard completion.
	var col *smtavf.Telemetry
	if tel.Enabled() {
		if shards.Sharded() && tel.Path != "" {
			fatal(fmt.Errorf("-telemetry requires a monolithic run: a sharded run has no contiguous cycle timeline (drop -shards or -telemetry)"))
		}
		col = smtavf.NewTelemetry(smtavf.TelemetryOptions{
			WindowCycles: tel.Window,
			Logger:       logger,
			Registry:     reg,
		})
		col.SetProgress(prog)
		if tel.Path != "" {
			exp, err := telemetry.Create(tel.Path)
			if err != nil {
				fatal(err)
			}
			col.AddExporter(exp)
			man.AddArtifact("telemetry", tel.Path)
		}
		shut.Defer("telemetry", col.Close)
		if !shards.Sharded() {
			opts = append(opts, smtavf.WithTelemetry(col))
		}
	}
	// Fault-injection campaign: samples the run on a cycle grid, then the
	// strike phase after the run cross-validates the tracker's AVF.
	var camp *smtavf.FaultCampaign
	campSeed := inj.CampaignSeed(cfg.Seed)
	if inj.On {
		camp, err = smtavf.NewFaultCampaign(cfg, inj.Every, campSeed)
		if err != nil {
			fatal(err)
		}
		prot, err := smtavf.SpecProtection(spec)
		if err != nil {
			fatal(err)
		}
		camp.SetProtection(prot.Detections())
		camp.PublishTelemetry(col)
		opts = append(opts, smtavf.WithFaultInjection(camp))
		man.CampaignSeed = campSeed
	}
	// Fault-propagation tracer: records per-uop dataflow nodes during the
	// run so sampled strikes can be taint-tracked afterwards.
	var tracer *smtavf.PropagationTracer
	if prop.Enabled() {
		tracer = smtavf.NewPropagation(smtavf.PropagationOptions{})
		tracer.PublishTelemetry(col)
		opts = append(opts, smtavf.WithPropagation(tracer))
	}
	// Explainability observer: per-thread CPI stacks plus occupancy-by-fate,
	// printed after the run and optionally exported as a windowed series.
	var stack *smtavf.CPIStack
	if cpi.Enabled() {
		stack = smtavf.NewCPIStack(cpi.Options())
		stack.PublishTelemetry(col)
		opts = append(opts, smtavf.WithCPIStack(stack))
	}
	// Pipeline flight recorder, when a trace file or provenance report is
	// requested.
	var rec *smtavf.PipeTrace
	if pt.Enabled() {
		opt, err := pt.Options()
		if err != nil {
			fatal(err)
		}
		rec = smtavf.NewPipeTrace(opt)
		opts = append(opts, smtavf.WithPipeTrace(rec))
	}
	// On ^C, flush whatever the flight recorder holds so the partial trace
	// is still openable; the normal path writes it once, below.
	var ptWritten bool
	if rec != nil && pt.Path != "" {
		shut.Defer("pipetrace", func() error {
			if ptWritten {
				return nil
			}
			return rec.WriteFile(pt.Path)
		})
	}

	sim, err := smtavf.New(cfg, opts...)
	if err != nil {
		fatal(err)
	}

	var dbg *telemetry.DebugServer
	if tel.DebugAddr != "" {
		dbg, err = telemetry.ServeDebug(tel.DebugAddr, col, logger)
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
	}

	telemetry.RunManifest(logger, "smtsim", cfg, cfg.Seed, workloads,
		"policy", spec.PolicyName(),
		"instructions", spec.Instructions,
		"warmup", cfg.Warmup,
		"telemetry_window", tel.Window,
		"shards", shards.N,
	)

	start := time.Now()
	res, err := sim.Run(spec.Instructions)
	if err != nil {
		fatal(err)
	}
	runRes = res
	if obsFlags.Timeline != "" {
		if err := jsonlio.EncodeFile(obsFlags.Timeline, func(w io.Writer) error {
			return smtavf.WriteTimeline(w, sim.Timeline())
		}); err != nil {
			fatal(fmt.Errorf("obs-timeline: %w", err))
		}
		man.AddArtifact("timeline", obsFlags.Timeline)
		logger.Info("worker timeline written", "path", obsFlags.Timeline, "spans", len(sim.Timeline()))
	}
	if rec != nil && pt.Path != "" {
		if err := rec.WriteFile(pt.Path); err != nil {
			fatal(fmt.Errorf("pipetrace: %w", err))
		}
		ptWritten = true
		man.AddArtifact("pipetrace", pt.Path)
		logger.Info("pipetrace written", "path", pt.Path, "records", rec.Len(), "dropped", rec.Dropped())
	}
	if stack != nil && cpi.Out != "" {
		if err := stack.WriteFile(cpi.Out); err != nil {
			fatal(fmt.Errorf("cpistack-out: %w", err))
		}
		man.AddArtifact("cpistack", cpi.Out)
		logger.Info("cpistack series written", "path", cpi.Out, "windows", len(stack.Windows()))
	}
	var (
		injStats *smtavf.InjectStats
		injXval  *smtavf.CrossValReport
		atlas    *smtavf.PropagationAtlas
	)
	if camp != nil {
		injStats = camp.RunStrikes(res.Cycles, spec.Inject.Stop)
		runStats = injStats
		injXval = smtavf.CrossValidate(smtavf.CrossValMeta{
			Workload: spec.WorkloadName(),
			Policy:   spec.PolicyName(),
			Seed:     campSeed,
			Every:    inj.Every,
			Cycles:   res.Cycles,
		}, res, injStats)
		logger.Info("inject campaign done",
			"strikes", injStats.TotalStrikes,
			"rounds", injStats.Rounds,
			"stopped_early", injStats.StoppedEarly,
			"max_halfwidth", fmt.Sprintf("%.5f", injStats.MaxHalfWidth()),
			"pass", injXval.Pass(),
		)
		if inj.Report != "" {
			if err := injXval.WriteFile(inj.Report); err != nil {
				fatal(fmt.Errorf("inject-report: %w", err))
			}
			man.AddArtifact("crossval", inj.Report)
			logger.Info("crossval report written", "path", inj.Report, "entries", len(injXval.Entries))
		}
		// Taint-track freshly sampled strikes through the recorded dataflow.
		if tracer != nil {
			var strikes []smtavf.InjectStrike
			for _, s := range smtavf.Structs() {
				strikes = append(strikes, camp.SampleStrikes(s, res.Cycles, prop.Strikes)...)
			}
			atlas = tracer.Analyze(strikes)
			logger.Info("propagation atlas built",
				"strikes", atlas.Strikes,
				"resolved", atlas.Resolved,
				"sdc", atlas.Terminals[propagation.TerminalSDC],
				"cross_thread", atlas.CrossEdges(),
				"max_depth", atlas.MaxDepth,
			)
			if prop.Out != "" {
				if err := propagation.WriteFile(prop.Out, atlas.Traces); err != nil {
					fatal(fmt.Errorf("propagation-out: %w", err))
				}
				man.AddArtifact("propagation", prop.Out)
				logger.Info("propagation traces written", "path", prop.Out, "traces", len(atlas.Traces))
			}
		}
	}
	elapsed := time.Since(start)
	logger.Info("run complete",
		"cycles", res.Cycles,
		"instructions", res.Total,
		"ipc", fmt.Sprintf("%.4f", res.IPC()),
		"processor_avf", fmt.Sprintf("%.4f", res.ProcessorAVF()),
		"windows", col.Windows(),
		"shards", shards.N,
		"elapsed", elapsed.Round(time.Millisecond).String(),
		"cycles_per_sec", fmt.Sprintf("%.0f", float64(res.Cycles)/elapsed.Seconds()),
	)
	shut.Finish(obs.StatusOK, logger)

	if *asJSON {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	}
	fmt.Print(res)
	if injStats != nil {
		fmt.Println()
		fmt.Print(injStats.Table())
		fmt.Println()
		fmt.Print(injXval.Table())
	}
	if atlas != nil && prop.On {
		fmt.Println()
		fmt.Print(atlas.Tables(prop.Top))
	}
	if stack != nil {
		fmt.Println()
		fmt.Print(stack.FormatStack())
		fmt.Println()
		fmt.Print(stack.FormatOccupancy())
	}
	if rec != nil && pt.Top > 0 {
		prov := rec.Provenance()
		fmt.Println()
		for _, s := range pipetrace.RecordStructs {
			fmt.Print(prov.FormatHotspots(s, pt.Top))
		}
		fmt.Print(prov.FormatFates())
	}
	if cfg.PhaseInterval > 0 {
		fmt.Println("  phases (cycle / IPC / IQ AVF / ROB AVF):")
		for _, ph := range res.Phases {
			fmt.Printf("    %10d  %6.3f  %6.2f%%  %6.2f%%\n",
				ph.Cycle, ph.IPC, 100*ph.AVF[smtavf.IQ], 100*ph.AVF[smtavf.ROB])
		}
	}
}

// pointFlags are the flags that apply to a campaign file run point by
// point; every other flag configures a single run's observers or axes.
var pointFlags = map[string]bool{
	"spec": true, "shards": true, "shard-workers": true,
	"log-level": true, "log-json": true, "cpuprofile": true, "memprofile": true,
	"obs-ledger": true,
}

// runPoints executes a campaign file's points in order through the
// executor avfd uses — an experiments.Runner with avfd's default options
// (base budget 50 000, seed 1) and -shards as the shard defaults — and
// writes each Result to stdout as one JSON line, encoded as avfd's
// stream encodes it. -obs-ledger gets one campaign-point manifest per
// point.
func runPoints(path string, points []campaign.Spec, runner *experiments.Runner, obsFlags *cliopts.Obs, logger *slog.Logger) error {
	var bad []string
	flag.Visit(func(f *flag.Flag) {
		if !pointFlags[f.Name] {
			bad = append(bad, "-"+f.Name)
		}
	})
	if len(bad) > 0 {
		return fmt.Errorf("%s holds %d point(s) run as a campaign; %s configure a single run (run one point printed by -dumpspec instead)",
			path, len(points), strings.Join(bad, ", "))
	}
	ledger, err := obsFlags.OpenLedger()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	failed := 0
	for i, p := range points {
		start := time.Now()
		res := campaign.RunPoint(runner.Campaign, p, i)
		if err := ledger.Append(campaign.PointManifest("smtsim", p, res, start)); err != nil {
			return fmt.Errorf("obs-ledger: %w", err)
		}
		if err := enc.Encode(res); err != nil {
			return err
		}
		if res.Status != obs.StatusOK {
			failed++
		}
		logger.Info("campaign point", "point", i, "of", len(points), "name", res.Name,
			"status", res.Status, "elapsed", time.Since(start).Round(time.Millisecond).String())
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d points failed", failed, len(points))
	}
	return nil
}

// printJSON writes v to stdout as indented JSON (the -dumpspec and
// -dumpconfig output).
func printJSON(v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smtsim:", err)
	shut.Finish(obs.StatusError, nil)
	os.Exit(1)
}
