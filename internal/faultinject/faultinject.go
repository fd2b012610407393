// Package faultinject is a deterministic fault-injection registry for
// robustness testing. Production code calls Point(ctx, name) at the
// pipeline's stage boundaries; with no faults armed the call is a
// single atomic load. Tests — and operators
// reproducing a field failure — arm faults with the VIRGIL_FAULT
// environment variable or Set:
//
//	VIRGIL_FAULT=mono:panic:3        panic at the 4th mono boundary hit
//	VIRGIL_FAULT=norm:delay:1        sleep 50ms at the 2nd norm hit
//	VIRGIL_FAULT=lower:delay:0:200   sleep 200ms at the 1st lower hit
//	VIRGIL_FAULT=peer-dial:err:4+    error at every dial from the 5th on
//
// The spec grammar is a comma-separated list of point:kind:nth[:ms]
// where kind is panic, err, or delay and nth is the 0-based occurrence
// of that point at which the fault fires (exactly once per arming).
// An nth with a trailing "+" fires at that occurrence and EVERY one
// after it — the persistent form chaos harnesses use to model a peer
// that stays broken rather than one that glitches once.
// Occurrences are counted with an atomic per-fault counter, so WHICH
// call fires is deterministic even when points are hit concurrently;
// delays are context-aware so an injected stall never outlives the
// caller's cancellation.
//
// Point names are defined by their call sites. The catalog today:
// the pipeline stages "parse", "check", "lower", "mono", "norm",
// "opt", "validate", their "verify-<stage>" variants, and the
// execution boundary "interp". The bytecode
// path adds two engine-specific points the switch interpreter never
// crosses: "translate" (before IR-to-bytecode translation) and
// "engine" (after translation, before the first bytecode
// instruction) — these drive the serve tier's engine-fallback
// watchdog. The cluster tier's peer-forwarding client adds three
// network points: "peer-dial" (before a forwarded request is sent —
// an err here is a connection failure), "peer-stall" (a delay here is
// network latency on the forward path), and "peer-5xx" (after a peer
// response is received — an err here makes the forwarder treat the
// reply as a 500). These drive the retry/breaker/degradation ladder
// in internal/cluster.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Fault kinds.
const (
	KindPanic = "panic"
	KindErr   = "err"
	KindDelay = "delay"
)

// DefaultDelay is the stall injected by a delay fault with no explicit
// duration field.
const DefaultDelay = 50 * time.Millisecond

// ErrInjected is the sentinel wrapped by every err-kind fault, so tests
// can errors.Is their way past message formatting.
var ErrInjected = errors.New("faultinject: injected error")

// Fault is one armed fault: at the Nth hit of Point(Name) it panics,
// returns an error, or delays — exactly once, or (with Every) at that
// hit and every later one.
type Fault struct {
	Point string
	Kind  string
	Nth   int64
	Delay time.Duration
	// Every makes the fault persistent: it fires at occurrence Nth and
	// every occurrence after it (spec form "nth+").
	Every bool

	hits atomic.Int64
}

// Registry holds a set of armed faults.
type Registry struct {
	faults []*Fault
}

// Points returns the distinct point names with at least one armed
// fault, in arming order (used by docs/stats, not on hot paths).
func (r *Registry) Points() []string {
	var names []string
	seen := map[string]bool{}
	for _, f := range r.faults {
		if !seen[f.Point] {
			seen[f.Point] = true
			names = append(names, f.Point)
		}
	}
	return names
}

// Parse builds a registry from a VIRGIL_FAULT spec. An empty spec
// yields a nil registry (injection disabled).
func Parse(spec string) (*Registry, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	r := &Registry{}
	for _, one := range strings.Split(spec, ",") {
		f, err := parseOne(strings.TrimSpace(one))
		if err != nil {
			return nil, err
		}
		r.faults = append(r.faults, f)
	}
	return r, nil
}

func parseOne(s string) (*Fault, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 && len(parts) != 4 {
		return nil, fmt.Errorf("faultinject: bad spec %q (want point:kind:nth[:ms])", s)
	}
	f := &Fault{Point: parts[0], Kind: parts[1], Delay: DefaultDelay}
	if f.Point == "" {
		return nil, fmt.Errorf("faultinject: bad spec %q: empty point name", s)
	}
	switch f.Kind {
	case KindPanic, KindErr, KindDelay:
	default:
		return nil, fmt.Errorf("faultinject: bad spec %q: unknown kind %q (want panic, err, or delay)", s, f.Kind)
	}
	nthSpec := parts[2]
	if rest, ok := strings.CutSuffix(nthSpec, "+"); ok {
		f.Every = true
		nthSpec = rest
	}
	nth, err := strconv.ParseInt(nthSpec, 10, 64)
	if err != nil || nth < 0 {
		return nil, fmt.Errorf("faultinject: bad spec %q: nth must be a non-negative integer (optionally suffixed +)", s)
	}
	f.Nth = nth
	if len(parts) == 4 {
		ms, err := strconv.ParseInt(parts[3], 10, 64)
		if err != nil || ms < 0 {
			return nil, fmt.Errorf("faultinject: bad spec %q: ms must be a non-negative integer", s)
		}
		f.Delay = time.Duration(ms) * time.Millisecond
	}
	return f, nil
}

// current is the active registry; nil means injection is disabled and
// Point is one atomic load.
var current atomic.Pointer[Registry]

func init() {
	if spec := os.Getenv("VIRGIL_FAULT"); spec != "" {
		r, err := Parse(spec)
		if err != nil {
			// A typo'd spec must not silently disable the experiment the
			// operator thinks is running.
			panic(err)
		}
		current.Store(r)
	}
}

// Set installs r (nil disables injection) and returns a restore
// function for the previous registry. Tests use it to arm faults
// without mutating the process environment.
func Set(r *Registry) (restore func()) {
	prev := current.Swap(r)
	return func() { current.Store(prev) }
}

// Enabled reports whether any faults are armed.
func Enabled() bool { return current.Load() != nil }

// Point is the injection hook. When a fault armed for name reaches its
// Nth hit it fires: panic faults panic (to be converted by the caller's
// recovery boundary into a structured ICE), err faults return a wrapped
// ErrInjected, and delay faults stall for the configured duration or
// until ctx is cancelled, returning ctx.Err() in the latter case.
func Point(ctx context.Context, name string) error {
	r := current.Load()
	if r == nil {
		return nil
	}
	for _, f := range r.faults {
		if f.Point != name {
			continue
		}
		hit := f.hits.Add(1) - 1
		if f.Every {
			if hit < f.Nth {
				continue
			}
		} else if hit != f.Nth {
			continue
		}
		switch f.Kind {
		case KindPanic:
			panic(fmt.Sprintf("faultinject: injected panic at %s (occurrence %d)", name, f.Nth))
		case KindErr:
			return fmt.Errorf("%w at %s (occurrence %d)", ErrInjected, name, f.Nth)
		case KindDelay:
			t := time.NewTimer(f.Delay)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return nil
}
