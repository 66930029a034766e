package experiments

import (
	"fmt"

	"smtavf/internal/avf"
	"smtavf/internal/campaign"
	"smtavf/internal/core"
	"smtavf/internal/cpistack"
	"smtavf/internal/crossval"
	"smtavf/internal/inject"
	"smtavf/internal/propagation"
	"smtavf/internal/shard"
)

// defaults exposes the runner's options as the spec-resolution fallbacks
// of a campaign.Spec run through the runner.
func (r *Runner) defaults() campaign.Defaults {
	return campaign.Defaults{
		Seed:   r.opts.Seed,
		Warmup: r.opts.Warmup,
		Budget: r.budget,
	}
}

// Pin writes into spec what this runner would default for it — warmup,
// instruction budget, strike interval, a plain run's shard shape — so it
// means the same run under any defaults, including none (smtsim's
// observer path). The seed defaults to 1 everywhere and is left as is.
func (r *Runner) Pin(spec campaign.Spec) (campaign.Spec, error) {
	rv, err := spec.Resolve(r.defaults())
	if err != nil {
		return spec, err
	}
	spec.Warmup, spec.NoWarmup = rv.Config.Warmup, rv.Config.Warmup == 0
	spec.Instructions = rv.Quota
	if spec.Inject != nil {
		in := *spec.Inject // matrix points share the base's
		in.Every = rv.Every
		spec.Inject = &in
	}
	if spec.Kind() == campaign.KindRun && spec.Shards == 0 && spec.Inject == nil && r.opts.Shards > 1 {
		spec.Shards, spec.ShardWorkers = r.opts.Shards, r.opts.ShardWorkers
	}
	return spec, nil
}

// Campaign executes one campaign point — the single entry point the CLIs
// and the avfd service share. The spec's kind selects the experiment:
// a plain run (optionally sharded or with a strike campaign attached),
// the ACE-vs-injection cross-validation, the fault-propagation atlas, or
// the CPI-stack explainability study. Campaign runs are not memoized.
func (r *Runner) Campaign(spec campaign.Spec) (*campaign.Result, error) {
	switch spec.Kind() {
	case campaign.KindCrossVal:
		return r.campaignCrossVal(spec)
	case campaign.KindPropagation:
		return r.campaignPropagation(spec)
	case campaign.KindExplain:
		return r.campaignExplain(spec)
	default:
		return r.campaignRun(spec)
	}
}

// newResult seeds the shared Result header.
func newResult(spec campaign.Spec, title string, seed uint64) *campaign.Result {
	return &campaign.Result{
		V:        campaign.ResultVersion,
		Kind:     spec.Kind(),
		Name:     spec.Name,
		Title:    title,
		Workload: spec.WorkloadName(),
		Policy:   spec.PolicyName(),
		Seed:     seed,
		Status:   "ok",
	}
}

// campaignRun executes a plain simulation point: sharded when the spec
// asks for it, monolithic otherwise, with an optional strike campaign
// cross-validated against the tracker.
func (r *Runner) campaignRun(spec campaign.Spec) (*campaign.Result, error) {
	rv, err := spec.Resolve(r.defaults())
	if err != nil {
		return nil, err
	}
	result := newResult(spec, rv.Title, rv.Config.Seed)
	factory, err := rv.SourceFactory()
	if err != nil {
		return nil, err
	}

	// A spec that leaves its shard shape unset inherits the runner's
	// (avfd -shards); specs with a strike campaign stay monolithic, as
	// spec.Validate requires of explicitly sharded ones.
	shardsN, shardWorkers := spec.Shards, spec.ShardWorkers
	if shardsN == 0 && spec.Inject == nil {
		shardsN, shardWorkers = r.opts.Shards, r.opts.ShardWorkers
	}
	if shardsN > 1 {
		eng, err := shard.New(rv.Config, factory, shard.Options{
			Shards:       shardsN,
			Workers:      shardWorkers,
			WarmupWindow: spec.ShardWarmupWindow,
		})
		if err != nil {
			return nil, err
		}
		res, err := eng.Run(rv.Quota)
		if err != nil {
			return nil, fmt.Errorf("campaign run %s: %w", rv.Title, err)
		}
		result.FillRun(res)
		return result, nil
	}

	srcs, err := factory()
	if err != nil {
		return nil, err
	}
	proc, err := core.NewFromSources(rv.Config, srcs)
	if err != nil {
		return nil, err
	}
	var camp *inject.Campaign
	if spec.Inject != nil {
		camp, err = inject.NewCampaign(core.StructBits(rv.Config), rv.Every, rv.CampaignSeed)
		if err != nil {
			return nil, err
		}
		camp.SetProtection(rv.Protection.Detections())
		proc.Attach(camp)
	}
	res, err := proc.Run(core.Limits{TotalInstructions: rv.Quota})
	if err != nil {
		return nil, fmt.Errorf("campaign run %s: %w", rv.Title, err)
	}
	result.FillRun(res)
	if camp != nil {
		stats := camp.RunStrikes(res.Cycles, rv.Stop)
		result.Strikes = stats.TotalStrikes
		result.CrossVal = crossval.Build(crossval.Meta{
			Workload: rv.Title,
			Policy:   spec.PolicyName(),
			Seed:     rv.CampaignSeed,
			Seeds:    1,
			Every:    rv.Every,
			Cycles:   res.Cycles,
		}, trackerAVF(res), stats)
	}
	return result, nil
}

// campaignCrossVal runs the seed fanout concurrently (one simulation +
// campaign per seed) and pools the per-seed agreement reports into one.
// Each fanout seed seeds both the simulation and its campaign (unless
// Inject.Seed pins the campaign seed).
func (r *Runner) campaignCrossVal(spec campaign.Spec) (*campaign.Result, error) {
	rv0, err := spec.Resolve(r.defaults())
	if err != nil {
		return nil, err
	}
	seeds := rv0.Seeds
	perSeed := make([]*crossval.Report, len(seeds))
	err = forEach(len(seeds), func(i int) error {
		sp := spec
		sp.Seed = seeds[i]
		rv, err := sp.Resolve(r.defaults())
		if err != nil {
			return fmt.Errorf("seed %d: %w", seeds[i], err)
		}
		rep, err := r.campaignCrossValSeed(rv)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seeds[i], err)
		}
		perSeed[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	pooled, err := crossval.Pool(perSeed)
	if err != nil {
		return nil, err
	}
	result := newResult(spec, rv0.Title, spec.Seed)
	result.CrossVal = pooled
	result.CrossValSeeds = perSeed
	for _, e := range pooled.Entries {
		result.Strikes += e.Strikes
	}
	result.AVF = make(map[string]float64, len(pooled.Entries))
	for _, e := range pooled.Entries {
		result.AVF[e.Struct] = e.TrackerAVF
	}
	return result, nil
}

// campaignCrossValSeed runs one resolved seed's simulation with a
// campaign attached and builds its agreement report.
func (r *Runner) campaignCrossValSeed(rv *campaign.Resolved) (*crossval.Report, error) {
	camp, err := inject.NewCampaign(core.StructBits(rv.Config), rv.Every, rv.CampaignSeed)
	if err != nil {
		return nil, err
	}
	camp.SetProtection(rv.Protection.Detections())
	proc, err := core.New(rv.Config, rv.Profiles)
	if err != nil {
		return nil, err
	}
	proc.Attach(camp)
	res, err := proc.Run(core.Limits{TotalInstructions: rv.Quota})
	if err != nil {
		return nil, err
	}
	stats := camp.RunStrikes(res.Cycles, rv.Stop)
	meta := crossval.Meta{
		Workload: rv.Title,
		Policy:   rv.Spec.PolicyName(),
		Seed:     rv.Config.Seed,
		Seeds:    1,
		Every:    rv.Every,
		Cycles:   res.Cycles,
	}
	return crossval.Build(meta, trackerAVF(res), stats), nil
}

// campaignPropagation runs the workload with a strike campaign and the
// propagation tracer attached, then taint-tracks sampled strikes through
// the recorded dataflow.
func (r *Runner) campaignPropagation(spec campaign.Spec) (*campaign.Result, error) {
	rv, err := spec.Resolve(r.defaults())
	if err != nil {
		return nil, err
	}
	strikes := spec.Propagation.Strikes
	if strikes <= 0 {
		strikes = 256
	}
	title := rv.Title + " under " + spec.PolicyName()
	camp, err := inject.NewCampaign(core.StructBits(rv.Config), rv.Every, rv.CampaignSeed)
	if err != nil {
		return nil, err
	}
	camp.SetProtection(rv.Protection.Detections())
	proc, err := core.New(rv.Config, rv.Profiles)
	if err != nil {
		return nil, err
	}
	tracer := propagation.New(spec.Propagation.Options)
	proc.Attach(camp, tracer)
	res, err := proc.Run(core.Limits{TotalInstructions: rv.Quota})
	if err != nil {
		return nil, fmt.Errorf("propagation run %s: %w", title, err)
	}
	var sampled []inject.Strike
	for _, s := range avf.Structs() {
		sampled = append(sampled, camp.SampleStrikes(s, res.Cycles, strikes)...)
	}
	atlas := tracer.Analyze(sampled)
	result := newResult(spec, title, rv.Config.Seed)
	result.FillRun(res)
	result.Strikes = uint64(atlas.Strikes)
	result.Atlas = atlas
	result.Propagation = campaign.SummarizeAtlas(atlas)
	return result, nil
}

// campaignExplain runs the workload once per policy with the CPI-stack
// observer attached and distills the runs into the explainability figure
// family. Each policy re-resolves the spec into its own configuration.
func (r *Runner) campaignExplain(spec campaign.Spec) (*campaign.Result, error) {
	rv0, err := spec.Resolve(r.defaults())
	if err != nil {
		return nil, err
	}
	policies := spec.Explain.Policies
	if len(policies) == 0 {
		policies = []string{"ICOUNT", "STALL", "FLUSH"}
	}
	window := spec.Explain.Window
	if window == 0 {
		window = cpistack.DefaultWindowCycles
	}
	runs := make([]explainRun, 0, len(policies))
	for _, policy := range policies {
		sp := spec
		sp.Policy = policy
		rv, err := sp.Resolve(r.defaults())
		if err != nil {
			return nil, err
		}
		proc, err := core.New(rv.Config, rv.Profiles)
		if err != nil {
			return nil, err
		}
		obs := cpistack.New(cpistack.Options{WindowCycles: window})
		proc.Attach(obs)
		res, err := proc.Run(core.Limits{TotalInstructions: rv.Quota})
		if err != nil {
			return nil, fmt.Errorf("explain run %s under %s: %w", rv0.Title, policy, err)
		}
		runs = append(runs, explainRun{policy: policy, obs: obs, res: res})
	}
	tables := []*Table{explainStackTable(rv0.Title, runs)}
	for _, run := range runs {
		tables = append(tables, explainOccupancyTable(rv0.Title, run))
	}
	tables = append(tables, explainCorrelationTable(rv0.Title, runs))
	result := newResult(spec, rv0.Title, rv0.Config.Seed)
	result.Tables = TablesToCampaign(tables)
	return result, nil
}

// trackerAVF extracts the per-structure tracker estimates a crossval
// report compares against.
func trackerAVF(res *core.Results) [avf.NumStructs]float64 {
	var tracker [avf.NumStructs]float64
	for s := range tracker {
		tracker[s] = res.StructAVF(avf.Struct(s))
	}
	return tracker
}

// TablesToCampaign converts renderer tables to their wire form.
func TablesToCampaign(ts []*Table) []campaign.Table {
	out := make([]campaign.Table, 0, len(ts))
	for _, t := range ts {
		out = append(out, campaign.Table{
			Title:   t.Title,
			Note:    t.Note,
			Rows:    t.Rows,
			Cols:    t.Cols,
			Cells:   t.Cells,
			Percent: t.Percent,
		})
	}
	return out
}

// TablesFromCampaign converts wire tables back for the local renderers
// (cmd/avfreport's text/CSV/chart emitters).
func TablesFromCampaign(ts []campaign.Table) []*Table {
	out := make([]*Table, 0, len(ts))
	for _, t := range ts {
		out = append(out, &Table{
			Title:   t.Title,
			Note:    t.Note,
			Rows:    t.Rows,
			Cols:    t.Cols,
			Cells:   t.Cells,
			Percent: t.Percent,
		})
	}
	return out
}
