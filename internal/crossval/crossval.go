// Package crossval compares the two independent AVF estimators the
// simulator carries — the avf.Tracker's ACE-residency accounting and the
// inject.Campaign's statistical strike sampling — and renders their
// agreement as a per-structure report: absolute delta, z-score of the
// tracker estimate against the strike distribution, and a pass/fail
// verdict against the campaign's Wilson confidence interval.
//
// The paper (§2, §6) frames statistical fault injection as the expensive
// ground truth that ACE analysis approximates; this package is the
// referee that keeps the approximation honest. A report that fails —
// a tracker AVF outside the injection CI — means the interval accounting
// and the strike sampling disagree about the same machine state, which
// localizes a bug in one of them.
//
// Reports serialize as versioned JSONL (the same `v` schema convention
// telemetry windows and pipetrace records use) and are gzip-aware on both
// ends (paths ending in .gz).
package crossval

import (
	"fmt"
	"io"
	"math"
	"strings"

	"smtavf/internal/avf"
	"smtavf/internal/inject"
	"smtavf/internal/jsonlio"
)

// SchemaVersion identifies the Entry JSON schema; bump when renaming or
// removing fields.
const SchemaVersion = 1

// passEps absorbs float noise at the CI edges: a tracker AVF within
// passEps of the interval boundary still passes.
const passEps = 1e-9

// Meta identifies the run a report was produced from.
type Meta struct {
	Workload string `json:"workload"`
	Policy   string `json:"policy"`
	// Seed is the campaign seed (0 in a pooled report).
	Seed uint64 `json:"seed"`
	// Seeds is the number of campaigns pooled into the report (1 for a
	// single-seed report).
	Seeds int `json:"seeds"`
	// Every is the campaign's sample-grid pitch in cycles.
	Every uint64 `json:"every"`
	// Cycles is the measured cycle count the estimates cover.
	Cycles uint64 `json:"cycles"`
}

// Entry is the agreement record of one structure — one JSONL line.
type Entry struct {
	V          int     `json:"v"`
	Workload   string  `json:"workload"`
	Policy     string  `json:"policy"`
	Seed       uint64  `json:"seed"`
	Seeds      int     `json:"seeds"`
	Struct     string  `json:"struct"`
	Protection string  `json:"protection"`
	TrackerAVF float64 `json:"tracker_avf"`
	InjectAVF  float64 `json:"inject_avf"`
	Strikes    uint64  `json:"strikes"`
	ACEStrikes uint64  `json:"ace_strikes"`
	CILo       float64 `json:"ci_lo"`
	CIHi       float64 `json:"ci_hi"`
	HalfWidth  float64 `json:"half_width"`
	// Delta is inject_avf - tracker_avf.
	Delta float64 `json:"delta"`
	// Z is the tracker estimate's distance from the strike proportion in
	// standard errors of the strike estimate.
	Z float64 `json:"z"`
	// Pass reports the tracker AVF inside the strike CI.
	Pass bool `json:"pass"`
}

// Report is the per-structure agreement between the tracker and one (or a
// pool of) injection campaign(s).
type Report struct {
	Confidence   float64
	StoppedEarly bool
	Meta         Meta
	Entries      []Entry
}

// Build computes the agreement report between the tracker's per-structure
// AVF (tracker, indexed by avf.Struct) and a completed strike experiment.
// Structures that drew no strikes (zero capacity or an empty grid) are
// omitted.
func Build(meta Meta, tracker [avf.NumStructs]float64, stats *inject.Stats) *Report {
	if meta.Seeds == 0 {
		meta.Seeds = 1
	}
	r := &Report{Confidence: stats.Confidence, StoppedEarly: stats.StoppedEarly, Meta: meta}
	for _, s := range avf.Structs() {
		st := stats.PerStruct[s]
		if st.Strikes == 0 {
			continue
		}
		r.Entries = append(r.Entries, makeEntry(meta, s, st.Protection.String(),
			tracker[s], st.ACEStrikes(), st.Strikes, stats.Confidence))
	}
	return r
}

// makeEntry derives every statistic of one structure's agreement record
// from the strike counts — shared by Build and Pool so pooled entries are
// recomputed, not averaged.
func makeEntry(meta Meta, s avf.Struct, prot string, trackerAVF float64, k, n uint64, confidence float64) Entry {
	p := float64(k) / float64(n)
	lo, hi := inject.Wilson(k, n, confidence)
	se := math.Sqrt(p * (1 - p) / float64(n))
	z := 0.0
	if se > 0 {
		z = (trackerAVF - p) / se
	}
	return Entry{
		V:          SchemaVersion,
		Workload:   meta.Workload,
		Policy:     meta.Policy,
		Seed:       meta.Seed,
		Seeds:      meta.Seeds,
		Struct:     s.String(),
		Protection: prot,
		TrackerAVF: trackerAVF,
		InjectAVF:  p,
		Strikes:    n,
		ACEStrikes: k,
		CILo:       lo,
		CIHi:       hi,
		HalfWidth:  (hi - lo) / 2,
		Delta:      p - trackerAVF,
		Z:          z,
		Pass:       trackerAVF >= lo-passEps && trackerAVF <= hi+passEps,
	}
}

// structByName inverts avf.Struct.String — entries carry the structure as
// its display name so the JSONL is self-describing.
func structByName(name string) (avf.Struct, bool) {
	for _, s := range avf.Structs() {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}

// Pass reports whether every structure's tracker AVF sits inside its
// strike confidence interval.
func (r *Report) Pass() bool { return len(r.Failed()) == 0 }

// Failed returns the entries whose tracker AVF falls outside the CI.
func (r *Report) Failed() []Entry {
	var out []Entry
	for _, e := range r.Entries {
		if !e.Pass {
			out = append(out, e)
		}
	}
	return out
}

// Table renders the report as an aligned text table.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ACE-vs-injection cross-validation: %s / %s (%d seed", r.Meta.Workload, r.Meta.Policy, r.Meta.Seeds)
	if r.Meta.Seeds != 1 {
		b.WriteString("s")
	}
	fmt.Fprintf(&b, ", every=%d, %.0f%% CI", r.Meta.Every, 100*r.Confidence)
	if r.StoppedEarly {
		b.WriteString(", stopped early")
	}
	b.WriteString(")\n")
	fmt.Fprintf(&b, "  %-9s %-7s %9s %8s %8s %19s %8s %7s %s\n",
		"structure", "prot", "strikes", "tracker", "inject", "CI", "delta", "z", "verdict")
	for _, e := range r.Entries {
		verdict := "PASS"
		if !e.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "  %-9s %-7s %9d %7.2f%% %7.2f%%  [%6.2f%%,%6.2f%%] %+7.3f %+7.2f %s\n",
			e.Struct, e.Protection, e.Strikes, 100*e.TrackerAVF, 100*e.InjectAVF,
			100*e.CILo, 100*e.CIHi, 100*e.Delta, e.Z, verdict)
	}
	if r.Pass() {
		fmt.Fprintf(&b, "  verdict: PASS (%d/%d structures inside the CI)\n", len(r.Entries), len(r.Entries))
	} else {
		fmt.Fprintf(&b, "  verdict: FAIL (%d/%d structures outside the CI)\n", len(r.Failed()), len(r.Entries))
	}
	return b.String()
}

// WriteJSONL writes the report as one JSON object per line (schema
// version in every line's "v" field).
func (r *Report) WriteJSONL(w io.Writer) error {
	return jsonlio.WriteLines(w, r.Entries)
}

// WriteFile writes the report as JSONL to path, gzip-compressing when the
// name ends in .gz (the shared jsonlio writer convention).
func (r *Report) WriteFile(path string) error {
	return jsonlio.EncodeFile(path, r.WriteJSONL)
}

// checkEntry rejects entries with a schema version newer than this package
// understands (older versions still parse).
func checkEntry(e *Entry) error {
	if e.V > SchemaVersion {
		return fmt.Errorf("crossval: entry schema v%d is newer than supported v%d", e.V, SchemaVersion)
	}
	return nil
}

// ReadJSONL parses entries written by WriteJSONL. Lines with a schema
// version newer than this package understands are an error.
func ReadJSONL(rd io.Reader) ([]Entry, error) {
	return jsonlio.ReadLines(rd, checkEntry)
}

// ReadFile reads entries from a JSONL file, transparently decompressing
// when the name ends in .gz.
func ReadFile(path string) ([]Entry, error) {
	return jsonlio.ReadFile(path, checkEntry)
}

// Pool aggregates per-seed reports of the same workload into one: strike
// and ACE-strike counts are summed per structure, the tracker AVF is
// averaged weighted by each seed's strike count, and the interval,
// delta, z, and verdict are recomputed from the pooled counts. Pooling N
// seeds tightens the CI by roughly sqrt(N) without rerunning any single
// campaign longer.
//
// The strike weighting matters: the pooled proportion k/n is inherently
// a strike-weighted mean of the per-seed estimates, and seeds whose AVF
// sits closer to 50% draw more strikes before their CI converges, so
// strike counts correlate with the per-seed AVF. An unweighted tracker
// mean would then sit systematically below the pooled proportion on
// high-AVF structures — a bias the tightened CI would flag as
// disagreement. Weighting both sides identically keeps the pooled
// tracker the exact expectation of the pooled proportion.
func Pool(reports []*Report) (*Report, error) {
	if len(reports) == 0 {
		return nil, fmt.Errorf("crossval: nothing to pool")
	}
	if len(reports) == 1 {
		return reports[0], nil
	}
	type acc struct {
		prot    string
		tracker float64 // strike-weighted sum of per-seed tracker AVFs
		k, n    uint64
	}
	var accs [avf.NumStructs]acc
	meta := reports[0].Meta
	meta.Seed = 0
	meta.Seeds = 0
	pooled := &Report{Confidence: reports[0].Confidence, StoppedEarly: true, Meta: meta}
	for _, r := range reports {
		if r.Confidence != pooled.Confidence {
			return nil, fmt.Errorf("crossval: cannot pool reports at different confidence levels (%.3f vs %.3f)",
				r.Confidence, pooled.Confidence)
		}
		pooled.Meta.Seeds += r.Meta.Seeds
		pooled.StoppedEarly = pooled.StoppedEarly && r.StoppedEarly
		for _, e := range r.Entries {
			s, ok := structByName(e.Struct)
			if !ok {
				return nil, fmt.Errorf("crossval: unknown structure %q", e.Struct)
			}
			a := &accs[s]
			a.prot = e.Protection
			a.tracker += e.TrackerAVF * float64(e.Strikes)
			a.k += e.ACEStrikes
			a.n += e.Strikes
		}
	}
	for _, s := range avf.Structs() {
		a := accs[s]
		if a.n == 0 {
			continue
		}
		pooled.Entries = append(pooled.Entries, makeEntry(pooled.Meta, s, a.prot,
			a.tracker/float64(a.n), a.k, a.n, pooled.Confidence))
	}
	return pooled, nil
}
