package eval

import "repro/internal/val"

// This file is the bridge between the two-state fast path (Value, the
// ≤64-bit known-bits representation the compiled and fused evaluators
// run on) and the four-state general plane (val.Bits). The fast path
// is a compile-time-selected specialization: values that are fully
// known and at most 64 bits wide convert losslessly in both
// directions, and anything else is routed to the general evaluator.

// ToBits lifts a two-state Value into the four-state plane. The
// conversion is exact: every bit is known, and the sign rides along in
// Bits.Signed so FromBits restores the same Value.
func (v Value) ToBits() val.Bits {
	b := val.FromUint64(v.Bits, v.Width)
	b.Signed = v.Signed
	return b
}

// FromBits lowers a four-state value onto the two-state fast path.
// ok is false when the value has unknown bits or is wider than 64 —
// the cases only the general path can represent. A signed value (a
// signed simulator signal read through the four-state plane) lowers
// back to a signed Value.
func FromBits(b val.Bits) (Value, bool) {
	if b.Width > 64 {
		return Value{}, false
	}
	u, ok := b.AsUint64()
	if !ok {
		return Value{}, false
	}
	return Make(u, b.Width, b.Signed), true
}
