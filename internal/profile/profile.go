// Package profile holds the runtime execution profiles harvested by
// the bytecode engine and consumed by the profile-guided optimizer.
//
// A profile is a per-program summary of what one or more runs actually
// did: how often each function was entered and how many steps it
// burned. Functions are keyed by the deterministic profile names Walk
// assigns, so a profile recorded by one process can be matched against
// a fresh compilation of the same source in another: keys are names,
// never pointers or hashes of a particular run.
//
// Profiles are advisory by construction. They only decide which
// functions count as hot — where the optimizer spends a raised inlining
// budget and the engine fuses instruction runs — so a stale or
// mismatched profile can cost speed, never correctness.
package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Version identifies the profile JSON schema. A consumer must reject
// versions it does not know rather than guess. Version-1 files written
// before the call-site and branch counters were dropped carry "sites"
// and "branches" blocks per function; decoding skips them.
const Version = 1

// Hotness thresholds of HotFuncs, which both the engine's run fusion
// and the optimizer's hot inlining read, so "hot" means the same set
// of functions at every tier.
const (
	DefaultHotCalls int64 = 32
	DefaultHotSteps int64 = 2048
)

// Func is the profile of one IR function, keyed by the function's
// name in the parent Profile.
type Func struct {
	// Calls counts invocations of the function.
	Calls int64 `json:"calls"`
	// Steps is the inclusive step count attributed to invocations of
	// the function (steps burned while the function was on top of the
	// profile attribution, including its fused instructions).
	Steps int64 `json:"steps,omitempty"`
}

// Profile is a complete per-program execution profile.
type Profile struct {
	Version int              `json:"version"`
	Funcs   map[string]*Func `json:"funcs"`
}

// New returns an empty profile at the current version.
func New() *Profile {
	return &Profile{Version: Version, Funcs: map[string]*Func{}}
}

// FuncFor returns the named function profile, creating it on demand.
func (p *Profile) FuncFor(name string) *Func {
	f := p.Funcs[name]
	if f == nil {
		f = &Func{}
		p.Funcs[name] = f
	}
	return f
}

// Merge folds other into p: counters add.
func (p *Profile) Merge(other *Profile) {
	if other == nil {
		return
	}
	for name, of := range other.Funcs {
		f := p.FuncFor(name)
		f.Calls += of.Calls
		f.Steps += of.Steps
	}
}

// Empty reports whether the profile recorded nothing at all.
func (p *Profile) Empty() bool {
	if p == nil {
		return true
	}
	for _, f := range p.Funcs {
		if f.Calls != 0 || f.Steps != 0 {
			return false
		}
	}
	return true
}

// Encode writes the profile as stable, human-diffable JSON: object
// keys sort (encoding/json sorts map keys), so two profiles with the
// same counters are byte-identical regardless of collection order.
func (p *Profile) Encode(w io.Writer) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Decode reads a profile written by Encode, rejecting unknown schema
// versions.
func Decode(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	if p.Version != Version {
		return nil, fmt.Errorf("profile: unsupported version %d (want %d)", p.Version, Version)
	}
	if p.Funcs == nil {
		p.Funcs = map[string]*Func{}
	}
	return &p, nil
}

// HotFuncs returns the names of functions called at least
// DefaultHotCalls times or burning at least DefaultHotSteps steps,
// sorted for determinism. These are the functions worth paying extra
// optimization budget on; a long loop in a function entered once is
// hot through its steps.
func (p *Profile) HotFuncs() []string {
	var hot []string
	for name, f := range p.Funcs {
		if f.Calls >= DefaultHotCalls || f.Steps >= DefaultHotSteps {
			hot = append(hot, name)
		}
	}
	sort.Strings(hot)
	return hot
}
