package interp

import (
	"fmt"

	"repro/internal/types"
)

// This file defines the modeled heap cost charged by both execution
// engines. The meter is a cumulative-allocation bound, not a live-heap
// measurement: every program-visible allocation adds its modeled size
// and nothing is ever subtracted, so the budget is a conservative cap
// on total allocation work. The model follows the normalized layouts
// of §4: an object is a header plus one slot per field, an array is a
// header plus its elements (byte elements are 1 byte, all other
// scalarized elements one slot), a boxed tuple is a header plus one
// slot per component, and a closure is a header plus a code pointer
// and a bound receiver. Transient values the engines materialize only
// as calling-convention artifacts (arity-adaptation packs, which only
// unnormalized modules make, and cast rebuilds) are deliberately not
// charged — they are representation details of one configuration, and
// charging them would make the budget diverge between
// otherwise-equivalent pipelines.
const (
	// HeapHeaderBytes is the modeled per-allocation header.
	HeapHeaderBytes = 16
	// HeapSlotBytes is the modeled size of one value slot.
	HeapSlotBytes = 8
)

// DefaultMaxHeap is the modeled allocation budget when none is
// configured: generous enough that no reasonable program hits it,
// small enough to contain a runaway allocator.
const DefaultMaxHeap int64 = 1 << 30

// HeapExhausted is the trap raised when the modeled heap budget is
// exceeded. Like all traps it carries a source-level trace.
const HeapExhausted = "!HeapExhausted"

// ObjectBytes models an object allocation with n fields.
func ObjectBytes(n int) int64 {
	return HeapHeaderBytes + HeapSlotBytes*int64(n)
}

// ArrayBytes models an array allocation of n elements of type elem.
// Void arrays carry only a length, byte arrays pack one byte per
// element, and every other element occupies a full slot.
func ArrayBytes(tc *types.Cache, elem types.Type, n int64) int64 {
	switch elem {
	case tc.Void():
		return HeapHeaderBytes
	case tc.Byte():
		return HeapHeaderBytes + n
	default:
		return HeapHeaderBytes + HeapSlotBytes*n
	}
}

// StringBytes models a string (byte-array) allocation of n bytes.
func StringBytes(n int) int64 {
	return HeapHeaderBytes + int64(n)
}

// TupleBytes models a boxed tuple with n components.
func TupleBytes(n int) int64 {
	return HeapHeaderBytes + HeapSlotBytes*int64(n)
}

// ClosureBytes models a closure: header, code pointer, bound receiver.
const ClosureBytes int64 = HeapHeaderBytes + 2*HeapSlotBytes

// ChargeHeap adds n modeled bytes to stats and reports whether the
// budget max is now exceeded. Both engines call this at every
// program-visible allocation site so the meter — and the trap point —
// is bit-identical across them.
func ChargeHeap(stats *Stats, max, n int64) bool {
	stats.HeapBytes += n
	return stats.HeapBytes > max
}

// HeapTrap builds the deterministic !HeapExhausted error both engines
// raise, with the trace stamped by the raising engine's call path.
func HeapTrap(n, max int64) *VirgilError {
	return &VirgilError{
		Name: HeapExhausted,
		Msg:  fmt.Sprintf("heap budget exhausted allocating %d bytes (budget %d bytes)", n, max),
	}
}
