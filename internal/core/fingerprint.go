package core

import (
	"bytes"
)

// The store fingerprint is the config half of every artifact key: two
// compiles may share artifacts only when the Config fields that shape
// compiled output agree. Fields that only affect how the artifact is
// *executed* (engine choice, runtime budgets) are
// deliberately excluded — the compiled module is byte-identical across
// them, so a bytecode-engine compile warms the cache for a
// switch-engine request and vice versa.
//
// storeKeyFields classifies every Config field. The classification is
// enforced by TestStoreFingerprintCoversConfig, which reflects over
// Config and fails on any field missing here, and flip-tests each
// in-key field to prove the fingerprint actually moves.
var storeKeyFields = map[string]bool{
	// Pipeline shape: which stages run determines the final IR.
	"Monomorphize": true,
	"Normalize":    true,
	"Optimize":     true,
	// Analyze changes the optimizer's passes (devirtualization, pure
	// call elimination, stack promotion), not just tooling output.
	"Analyze": true,
	// PGO steers speculative devirtualization and hot inlining; two
	// different profiles produce different modules.
	"PGO": true,
	// MaxErrors caps the diagnostic list on failed compiles. Successful
	// compiles are MaxErrors-independent, but the store also answers
	// whole-module hits whose Compilation is cloned under the request
	// config, so the conservative choice is in-key. (The serve cache
	// key includes it for the same reason.)
	"MaxErrors": true,

	// Execution-only: the compiled module is byte-identical across
	// engines (the cross-engine suite enforces it).
	"Engine": false,
	// Jobs is ignored by the compiler.
	"Jobs": false,
	// VerifyIR adds assertions between stages; it never rewrites IR.
	"VerifyIR": false,
	// Profile arms runtime profiling on the Compilation; compile output
	// is untouched (only runs differ).
	"Profile": false,
	// Runtime budgets, applied per run.
	"MaxSteps": false,
	"MaxDepth": false,
	"MaxHeap":  false,
	"Timeout":  false,
}

// storeFingerprint digests the in-key Config fields. Two configs with
// equal fingerprints compile any given source to byte-identical
// modules, so they may share one store entry.
func (c Config) storeFingerprint() [32]byte {
	d := newDigest()
	d.bool(c.Monomorphize)
	d.bool(c.Normalize)
	d.bool(c.Optimize)
	d.bool(c.Analyze)
	d.int(int64(c.MaxErrors))
	if c.PGO == nil {
		d.str("∅")
	} else {
		var buf bytes.Buffer
		// Encode is deterministic (sorted keys), so the digest is
		// stable for equal profiles.
		if err := c.PGO.Encode(&buf); err != nil {
			d.str("!encode:" + err.Error())
		} else {
			d.str(buf.String())
		}
	}
	return d.sum()
}
