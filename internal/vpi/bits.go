package vpi

import (
	"errors"

	"repro/internal/val"
)

// ErrFourState is returned by GetValue when a signal's current value
// cannot be lowered onto the two-state fast path — it has x/z bits or
// is wider than 64 bits; ReadValues reports such a slot as not read.
// Callers that can handle the general representation read the signal
// again through ReadBits; the debugger's compiled condition pipeline
// instead treats the slot as unreadable, which routes the affected
// conditions to the four-state tree-walk evaluator.
var ErrFourState = errors.New("vpi: value has unknown bits or exceeds 64 bits")

// BitsReader is an optional backend capability: read a signal's full
// four-state, arbitrary-width value. Backends whose native value plane
// is four-state (trace replay over real simulator dumps, a real VPI
// transport) implement it; two-state backends (the builtin RTL
// simulator) are covered by the ReadBits fallback, which lifts their
// known uint64 values losslessly.
type BitsReader interface {
	// GetBits returns the current four-state value of a signal by full
	// hierarchical name.
	GetBits(path string) (val.Bits, error)
}

// ReadBits reads a signal's four-state value through the backend's
// native BitsReader capability when present, else by lifting the
// two-state GetValue result. It never returns ErrFourState.
func ReadBits(b Interface, path string) (val.Bits, error) {
	if br, ok := b.(BitsReader); ok {
		return br.GetBits(path)
	}
	v, err := b.GetValue(path)
	if err != nil {
		return val.Bits{}, err
	}
	return v.ToBits(), nil
}

// GetBits implements BitsReader for the live simulator by lifting its
// two-state registers — the simulator is the fast specialization and
// never holds x/z.
func (b *SimBackend) GetBits(path string) (val.Bits, error) {
	v, err := b.Sim.Peek(path)
	if err != nil {
		return val.Bits{}, err
	}
	return v.ToBits(), nil
}

var _ BitsReader = (*SimBackend)(nil)
