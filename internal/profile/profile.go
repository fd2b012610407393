// Package profile holds the runtime execution profiles harvested by
// the bytecode engine and consumed by the profile-guided optimizer.
//
// A profile is a per-program summary of what one or more runs actually
// did: which functions were entered and how many steps they burned,
// and which way every branch went (with loop back-edges flagged so
// trip counts fall out of the taken counters). The engine assigns every
// branch a dense per-function ordinal in deterministic translation
// order, so a profile recorded by one process can be matched against a
// fresh compilation of the same source in another: keys are function
// names plus ordinals, never pointers or hashes of a particular run.
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
// versions it does not know rather than guess.
const Version = 1

// Default hotness thresholds, shared by the engine's profile-driven
// fusion selection and the optimizer's hot-inlining budget so "hot"
// means the same set of functions at every tier.
const (
	DefaultHotCalls int64 = 32
	DefaultHotSteps int64 = 2048
)

// Branch is the observed bias of one conditional branch.
type Branch struct {
	// Taken / Not count the two outcomes.
	Taken int64 `json:"taken"`
	Not   int64 `json:"not,omitempty"`
	// Back is set when the taken edge targets an already-emitted block —
	// a loop back-edge, so Taken approximates the trip count.
	Back bool `json:"back,omitempty"`
}

// Func is the profile of one IR function, keyed by the function's
// name in the parent Profile. Branches are keyed by the dense
// per-function ordinals the engine assigns in translation order
// (stringified, because JSON objects key by string); ordinals are
// stable across processes.
type Func struct {
	// Calls counts invocations of the function.
	Calls int64 `json:"calls"`
	// Steps is the inclusive step count attributed to invocations of
	// the function (steps burned while the function was on top of the
	// profile attribution, including its fused instructions).
	Steps    int64              `json:"steps,omitempty"`
	Branches map[string]*Branch `json:"branches,omitempty"`
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

// Branch returns the branch profile at ordinal ord, creating it on
// demand.
func (f *Func) Branch(ord int) *Branch {
	if f.Branches == nil {
		f.Branches = map[string]*Branch{}
	}
	k := key(ord)
	b := f.Branches[k]
	if b == nil {
		b = &Branch{}
		f.Branches[k] = b
	}
	return b
}

// BranchAt returns the branch profile at ordinal ord or nil.
func (f *Func) BranchAt(ord int) *Branch {
	if f == nil {
		return nil
	}
	return f.Branches[key(ord)]
}

func key(ord int) string { return fmt.Sprintf("%d", ord) }

// Merge folds other into p: counters add and back-edge flags or.
func (p *Profile) Merge(other *Profile) {
	if other == nil {
		return
	}
	for name, of := range other.Funcs {
		f := p.FuncFor(name)
		f.Calls += of.Calls
		f.Steps += of.Steps
		for k, ob := range of.Branches {
			if f.Branches == nil {
				f.Branches = map[string]*Branch{}
			}
			b := f.Branches[k]
			if b == nil {
				b = &Branch{Back: ob.Back}
				f.Branches[k] = b
			}
			b.Taken += ob.Taken
			b.Not += ob.Not
			b.Back = b.Back || ob.Back
		}
	}
}

// Empty reports whether the profile recorded nothing at all.
func (p *Profile) Empty() bool {
	if p == nil {
		return true
	}
	for _, f := range p.Funcs {
		if f.Calls != 0 || f.Steps != 0 || len(f.Branches) != 0 {
			return false
		}
	}
	return true
}

// TotalCalls sums the invocation counters, a quick heat proxy.
func (p *Profile) TotalCalls() int64 {
	var n int64
	for _, f := range p.Funcs {
		n += f.Calls
	}
	return n
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

// HotFuncs returns the names of functions whose invocation count,
// inclusive step count, or loop back-edge traffic meets the
// thresholds, sorted for determinism. These are the functions worth
// paying extra optimization budget on.
func (p *Profile) HotFuncs(minCalls, minSteps int64) []string {
	var hot []string
	for name, f := range p.Funcs {
		var back int64
		for _, b := range f.Branches {
			if b.Back {
				back += b.Taken
			}
		}
		if f.Calls >= minCalls || f.Steps >= minSteps || back >= minCalls {
			hot = append(hot, name)
		}
	}
	sort.Strings(hot)
	return hot
}
