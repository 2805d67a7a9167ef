package eval

import "math/bits"

// This file is the word instruction set: flat, statically typed
// instructions over one []uint64 value plane. The simulator's netlist
// program (rtl.Elaborate) and the debugger's fused condition program
// (expr.Fuse) are both lowered into it and both run through Exec, so
// the design and the conditions armed on it share one interpreter.
//
// Every plane slot holds its value's bits zero-extended above its
// width; a slot's type (width and signedness) is fixed when the
// program is built, not carried at run time. LowerPrim and LowerMux
// select each instruction's opcode, sign-extension shifts and result
// mask by calling Prim or Mux on zero values of the operand types, so
// an instruction computes exactly what those functions compute: Prim
// stays the one definition of the arithmetic. Once its types check, no
// instruction can fail.

// Op is a word opcode. An opcode ending in S sign-extends its operands
// by their shifts (Instr.SA, Instr.SB) before operating: it is chosen
// when Prim computes on Int() values, that is when the first operand
// is signed.
type Op uint8

// The opcodes. Every instruction but OpMemWrite stores its result r as
// plane[Dst] = r & Mask; sext(x) is x sign-extended by its shift.
const (
	OpMask     Op = iota // r = A: copies, width clamps, tail, asUInt, asSInt, unsigned pad
	OpSext               // r = sext(A): signed pad
	OpAdd                // r = A + B
	OpAddS               // r = sext(A) + sext(B)
	OpSub                // r = A - B
	OpSubS               // r = sext(A) - sext(B)
	OpMul                // r = A * B
	OpMulS               // r = sext(A) * sext(B)
	OpDiv                // r = A / B, 0 when B is 0
	OpDivS               // r = sext(A) / sext(B), 0 when B is 0
	OpRem                // r = A % B, 0 when B is 0
	OpRemS               // r = sext(A) % sext(B), 0 when B is 0
	OpLt                 // r = A < B (gt lowers here with swapped operands)
	OpLtS                // r = sext(A) < sext(B)
	OpLeq                // r = A <= B (geq lowers here with swapped operands)
	OpLeqS               // r = sext(A) <= sext(B)
	OpEq                 // r = A == B (andr compares against a constant all-ones slot)
	OpNeq                // r = A != B (orr and truth tests compare against a constant zero slot)
	OpAnd                // r = A & B
	OpOr                 // r = A | B
	OpXor                // r = A ^ B
	OpNot                // r = ^A
	OpNeg                // r = -sext(A)
	OpShl                // r = A << Imm
	OpShr                // r = A >> Imm: shr, bits, head
	OpShrS               // r = sext(A) >> Imm
	OpDshl               // r = A << B, 0 once B >= 64
	OpDshr               // r = A >> B, 0 once B >= 64
	OpDshrS              // r = sext(A) >> min(B, 63)
	OpCat                // r = A<<Imm | B
	OpXorR               // r = parity of A
	OpMux                // r = B if A != 0, else C
	OpMemRead            // r = memory Imm's word A, 0 past its depth
	OpMemWrite           // if A != 0, memory Imm's word B = C & Mask (none past its depth)
)

// Reads is how many of an instruction's operand slots the opcode reads:
// A, then B, then C.
func (op Op) Reads() int {
	switch op {
	case OpMux, OpMemWrite:
		return 3
	case OpMask, OpSext, OpNot, OpNeg, OpShl, OpShr, OpShrS, OpXorR, OpMemRead:
		return 1
	}
	return 2
}

// Instr is one word instruction: 32 bytes, no pointers.
type Instr struct {
	Op Op
	// SA and SB sign-extend operands A and B: 64 minus the width for a
	// signed operand narrower than 64 bits, else 0 (Value.Int extends
	// nothing else).
	SA, SB uint8
	// Imm is a static shift amount, cat's low-part width, or a memory
	// index.
	Imm uint32
	// Dst receives the result; A, B and C are operand slots.
	Dst, A, B, C int32
	// Mask is the result type's Mask.
	Mask uint64
}

// Exec runs code over the value plane v and the memories mems (only
// OpMemRead and OpMemWrite touch them; a program without either may
// pass nil).
func Exec(code []Instr, v []uint64, mems [][]uint64) {
	for i := range code {
		in := &code[i]
		var r uint64
		switch in.Op {
		case OpMask:
			r = v[in.A]
		case OpSext:
			r = sext(v[in.A], in.SA)
		case OpAdd:
			r = v[in.A] + v[in.B]
		case OpAddS:
			r = sext(v[in.A], in.SA) + sext(v[in.B], in.SB)
		case OpSub:
			r = v[in.A] - v[in.B]
		case OpSubS:
			r = sext(v[in.A], in.SA) - sext(v[in.B], in.SB)
		case OpMul:
			r = v[in.A] * v[in.B]
		case OpMulS:
			r = sext(v[in.A], in.SA) * sext(v[in.B], in.SB)
		case OpDiv:
			if b := v[in.B]; b != 0 {
				r = v[in.A] / b
			}
		case OpDivS:
			if b := v[in.B]; b != 0 {
				r = uint64(int64(sext(v[in.A], in.SA)) / int64(sext(b, in.SB)))
			}
		case OpRem:
			if b := v[in.B]; b != 0 {
				r = v[in.A] % b
			}
		case OpRemS:
			if b := v[in.B]; b != 0 {
				r = uint64(int64(sext(v[in.A], in.SA)) % int64(sext(b, in.SB)))
			}
		case OpLt:
			r = b2u(v[in.A] < v[in.B])
		case OpLtS:
			r = b2u(int64(sext(v[in.A], in.SA)) < int64(sext(v[in.B], in.SB)))
		case OpLeq:
			r = b2u(v[in.A] <= v[in.B])
		case OpLeqS:
			r = b2u(int64(sext(v[in.A], in.SA)) <= int64(sext(v[in.B], in.SB)))
		case OpEq:
			r = b2u(v[in.A] == v[in.B])
		case OpNeq:
			r = b2u(v[in.A] != v[in.B])
		case OpAnd:
			r = v[in.A] & v[in.B]
		case OpOr:
			r = v[in.A] | v[in.B]
		case OpXor:
			r = v[in.A] ^ v[in.B]
		case OpNot:
			r = ^v[in.A]
		case OpNeg:
			r = -sext(v[in.A], in.SA)
		case OpShl:
			r = v[in.A] << in.Imm
		case OpShr:
			r = v[in.A] >> in.Imm
		case OpShrS:
			r = uint64(int64(sext(v[in.A], in.SA)) >> in.Imm)
		case OpDshl:
			r = v[in.A] << v[in.B]
		case OpDshr:
			r = v[in.A] >> v[in.B]
		case OpDshrS:
			r = uint64(int64(sext(v[in.A], in.SA)) >> min(v[in.B], 63))
		case OpCat:
			r = v[in.A]<<in.Imm | v[in.B]
		case OpXorR:
			r = uint64(bits.OnesCount64(v[in.A]) & 1)
		case OpMux:
			if v[in.A] != 0 {
				r = v[in.B]
			} else {
				r = v[in.C]
			}
		case OpMemRead:
			if m, a := mems[in.Imm], v[in.A]; a < uint64(len(m)) {
				r = m[a]
			}
		case OpMemWrite:
			if m, a := mems[in.Imm], v[in.B]; v[in.A] != 0 && a < uint64(len(m)) {
				m[a] = v[in.C] & in.Mask
			}
			continue
		}
		v[in.Dst] = r & in.Mask
	}
}

// sext sign-extends x from bit 63-s (s is 0 for no extension).
func sext(x uint64, s uint8) uint64 { return uint64(int64(x<<s) >> s) }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
