package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"smtavf/internal/core"
)

// MaxPoints bounds a single submission's expansion — a guard against a
// typo'd axis turning into a week of simulation.
const MaxPoints = 4096

// Matrix is the submission form of a campaign: one base Spec fanned out
// over optional axes. Empty axes contribute a single "inherit the base"
// element, so the expansion is the cross product of whatever is listed.
type Matrix struct {
	V int `json:"v"`
	// Name labels the campaign in the service.
	Name string `json:"name,omitempty"`
	// Base is the spec every point starts from.
	Base Spec `json:"base"`
	// Axes: each listed value overrides the corresponding Base field.
	Policies []string `json:"policies,omitempty"`
	Mixes    []string `json:"mixes,omitempty"`
	Seeds    []uint64 `json:"seeds,omitempty"`
	// Machines are partial core.Config JSON objects, each decoded over
	// the point's base machine (OverlayMachine) — the structure-size
	// axis of a design-space sweep, e.g. [{"IQSize":48},{"IQSize":96}].
	Machines []json.RawMessage `json:"machines,omitempty"`
}

// decodeStrict decodes exactly one JSON value into v, rejecting unknown
// fields (also inside machine objects, which core.Config decodes
// strictly) and anything after the value. It is the one decoder behind
// POST /v1/campaigns and campaign files, so a misspelled key fails the
// same way everywhere instead of silently running the default.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("campaign: trailing data after the JSON value")
	}
	return nil
}

// OverlayMachine decodes a partial core.Config JSON object over a base
// machine: base if non-nil, else core.DefaultConfig(threads). Threads is
// forced to the workload's context count. smtsim -config and the
// Machines axis share this rule.
func OverlayMachine(base *core.Config, threads int, patch []byte) (core.Config, error) {
	cfg := core.DefaultConfig(threads)
	if base != nil {
		cfg = *base
	}
	if t := bytes.TrimSpace(patch); len(t) == 0 || t[0] != '{' {
		return cfg, errors.New("campaign: a machine patch must be a JSON object")
	}
	if err := json.Unmarshal(patch, &cfg); err != nil {
		return cfg, err
	}
	cfg.Threads = threads
	return cfg, nil
}

// specOwned are the core.Config fields a Spec decides itself (Resolve
// overwrites them). A machine patch setting one would label a point
// without changing its run — [{"Policy":"FLUSH"},{"Policy":"STALL"}]
// would be one simulation twice — so Points rejects it; smtsim -config
// accepts them, as it takes full -dumpconfig output.
var specOwned = []string{"Threads", "Policy", "Seed", "Warmup", "PhaseInterval"}

// Points expands the matrix into its campaign points, deterministically:
// mixes outermost, then policies, then machines, then seeds — the
// iteration order a sweep table reads naturally. Every point is
// validated.
func (m Matrix) Points() ([]Spec, error) {
	if m.V != 0 && m.V != SpecVersion {
		return nil, fmt.Errorf("campaign: matrix schema v%d is not supported (want v%d)", m.V, SpecVersion)
	}
	mixes := m.Mixes
	if len(mixes) == 0 {
		mixes = []string{""}
	}
	policies := m.Policies
	if len(policies) == 0 {
		policies = []string{""}
	}
	machines := m.Machines
	if len(machines) == 0 {
		machines = []json.RawMessage{nil}
	}
	seeds := m.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{0}
	}
	n := 1
	for _, axis := range []int{len(mixes), len(policies), len(machines), len(seeds)} {
		if n *= axis; n > MaxPoints {
			return nil, fmt.Errorf("campaign: matrix expands to more than %d points", MaxPoints)
		}
	}
	points := make([]Spec, 0, n)
	for _, mix := range mixes {
		for _, policy := range policies {
			for _, machine := range machines {
				for _, seed := range seeds {
					p := m.Base
					p.V = SpecVersion
					if mix != "" {
						p.Mix = mix
						p.Benchmarks = nil
						p.TraceFiles = nil
					}
					if policy != "" {
						p.Policy = policy
					}
					var parts []string
					if len(mixes) > 1 {
						parts = append(parts, p.WorkloadName())
					}
					if len(policies) > 1 {
						parts = append(parts, p.PolicyName())
					}
					if machine != nil {
						cfg, err := OverlayMachine(m.Base.Machine, p.Threads(), machine)
						if err != nil {
							return nil, fmt.Errorf("point %d: machine %s: %w", len(points), machine, err)
						}
						var keys map[string]json.RawMessage
						_ = json.Unmarshal(machine, &keys) // an object: it just decoded
						for k := range keys {
							if slices.ContainsFunc(specOwned, func(f string) bool { return strings.EqualFold(k, f) }) {
								return nil, fmt.Errorf("point %d: machine %s: a patch may not set %s; the spec decides it", len(points), machine, k)
							}
						}
						p.Machine = &cfg
						if len(machines) > 1 {
							var buf bytes.Buffer
							_ = json.Compact(&buf, machine) // valid: it just decoded
							parts = append(parts, buf.String())
						}
					}
					if seed != 0 {
						p.Seed = seed
					}
					if len(seeds) > 1 {
						parts = append(parts, fmt.Sprintf("seed%d", p.Seed))
					}
					p.Name = pointName(m.Base.Name, p, parts)
					if err := p.Validate(); err != nil {
						return nil, fmt.Errorf("point %d (%s): %w", len(points), p.Name, err)
					}
					points = append(points, p)
				}
			}
		}
	}
	return points, nil
}

// pointName labels an expanded point with the axes that vary (parts, in
// expansion order) under the base name, so streams and status payloads
// read without cross-referencing indices.
func pointName(base string, p Spec, parts []string) string {
	if base != "" {
		parts = append([]string{base}, parts...)
	}
	if len(parts) == 0 {
		return p.WorkloadName()
	}
	return strings.Join(parts, "/")
}
