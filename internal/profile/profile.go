// Package profile holds the runtime execution profiles harvested by
// the bytecode engine and consumed by the profile-guided optimizer.
//
// A profile is a per-program summary of what one or more runs actually
// did: which functions were entered and how many steps they burned,
// what every inline-cache site observed (monomorphic hits, misses,
// the receiver class or callee that stuck), and which way every branch
// went (with loop back-edges flagged so trip counts fall out of the
// taken counters). The engine assigns every site and branch a dense
// per-function ordinal in deterministic translation order, so a
// profile recorded by one process can be matched against a fresh
// compilation of the same source in another: keys are function names
// plus ordinals, never pointers or hashes of a particular run.
//
// Profiles are advisory by construction. The optimizer treats every
// entry as a hint that must be re-proven or guarded: a stale or
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

// Site kinds — which kind of call instruction the inline cache guards.
const (
	SiteVirtual  = "virtual"
	SiteIndirect = "indirect"
)

// Default hotness thresholds, shared by the engine's profile-driven
// fusion selection and the optimizer's hot-inlining budget so "hot"
// means the same set of functions at every tier.
const (
	DefaultHotCalls int64 = 32
	DefaultHotSteps int64 = 2048
)

// Site is the observed behavior of one inline-cache call site.
type Site struct {
	// Kind is SiteVirtual or SiteIndirect.
	Kind string `json:"kind"`
	// Hits counts fast-path dispatches through the installed cache.
	Hits int64 `json:"hits"`
	// Misses counts slow-path dispatches (cold or wrong receiver).
	Misses int64 `json:"misses"`
	// Installs counts cache (re)installs; Installs much greater than 1
	// means the site is polymorphic.
	Installs int64 `json:"installs,omitempty"`
	// Mega is set once the engine gave up installing caches at the site.
	Mega bool `json:"mega,omitempty"`
	// Class is the receiver class name observed by the surviving
	// monomorphic cache (virtual sites only). Empty when megamorphic or
	// when merged profiles disagree.
	Class string `json:"class,omitempty"`
	// Callee is the resolved target function name observed by the
	// surviving cache. Empty when megamorphic or on merge conflict.
	Callee string `json:"callee,omitempty"`
}

// Monomorphic reports whether the site stayed on one receiver and is
// worth a speculative guard: a surviving cache identity and a hit
// count that dwarfs the misses.
func (s *Site) Monomorphic() bool {
	return s != nil && !s.Mega && s.Callee != "" && s.Hits > 0 && s.Hits >= 8*s.Misses
}

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
// name in the parent Profile. Sites and Branches are keyed by the
// dense per-function ordinals the engine assigns in translation order
// (stringified, because JSON objects key by string); ordinals are
// stable across processes.
type Func struct {
	// Calls counts invocations of the function.
	Calls int64 `json:"calls"`
	// Steps is the inclusive step count attributed to invocations of
	// the function (steps burned while the function was on top of the
	// profile attribution, including its fused instructions).
	Steps    int64              `json:"steps,omitempty"`
	Sites    map[string]*Site   `json:"sites,omitempty"`
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

// Site returns the site profile at ordinal ord, creating it on demand.
func (f *Func) Site(ord int) *Site {
	if f.Sites == nil {
		f.Sites = map[string]*Site{}
	}
	k := key(ord)
	s := f.Sites[k]
	if s == nil {
		s = &Site{}
		f.Sites[k] = s
	}
	return s
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

// SiteAt returns the site profile at ordinal ord or nil. Read-only:
// never allocates.
func (f *Func) SiteAt(ord int) *Site {
	if f == nil {
		return nil
	}
	return f.Sites[key(ord)]
}

// BranchAt returns the branch profile at ordinal ord or nil.
func (f *Func) BranchAt(ord int) *Branch {
	if f == nil {
		return nil
	}
	return f.Branches[key(ord)]
}

func key(ord int) string { return fmt.Sprintf("%d", ord) }

// Merge folds other into p: counters add, back-edge flags or, and the
// observed cache identity survives only when both profiles agree (a
// conflict clears it, which downgrades the site to "not speculatable"
// rather than guessing).
func (p *Profile) Merge(other *Profile) {
	if other == nil {
		return
	}
	for name, of := range other.Funcs {
		f := p.FuncFor(name)
		f.Calls += of.Calls
		f.Steps += of.Steps
		for k, os := range of.Sites {
			if f.Sites == nil {
				f.Sites = map[string]*Site{}
			}
			s := f.Sites[k]
			if s == nil {
				s = &Site{Kind: os.Kind, Class: os.Class, Callee: os.Callee}
				f.Sites[k] = s
			}
			s.Hits += os.Hits
			s.Misses += os.Misses
			s.Installs += os.Installs
			s.Mega = s.Mega || os.Mega
			if s.Class != os.Class {
				s.Class = ""
			}
			if s.Callee != os.Callee {
				s.Callee = ""
			}
			if s.Kind == "" {
				s.Kind = os.Kind
			}
		}
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
		if f.Calls != 0 || f.Steps != 0 || len(f.Sites) != 0 || len(f.Branches) != 0 {
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
