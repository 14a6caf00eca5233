#include "textflag.h"

// func mulPanels2(o0, o1, a0, a1, p []float64)
//
// For every full 8-column block jb < len(o0)/8 and both rows r ∈ {0, 1}:
//
//	or[jb*8+c] = Σ_k ar[k] · p[(jb*len(a0)+k)*8 + c]    (c = 0..7)
//
// accumulated in ascending k from +0, skipping k where ar[k] == 0 (either
// sign; NaN is not skipped). p holds the k-major panels MulTBBlockedInto
// stages: panel jb is len(a0) consecutive 8-wide rows. Lanes span output
// columns, so each lane performs exactly the scalar kernel's
// s += a[k]*b[k] sequence: one MULPD rounding, one ADDPD rounding, no FMA.
//
// Registers: X0–X3 row-0 accumulators, X4–X7 row-1 accumulators, X8/X9
// the broadcast a0[k]/a1[k], X10–X13 the panel row, X14 zero, X15 scratch
// (X15 is restored to zero by the ABI0 wrapper on return).
TEXT ·mulPanels2(SB), NOSPLIT, $0-120
	MOVQ o0_base+0(FP), DI
	MOVQ o0_len+8(FP), CX
	MOVQ o1_base+24(FP), BX
	MOVQ a0_base+48(FP), SI
	MOVQ a0_len+56(FP), DX
	MOVQ a1_base+72(FP), R11
	MOVQ p_base+96(FP), R8
	SHRQ $3, CX
	XORPD X14, X14

block:
	TESTQ CX, CX
	JZ    done
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3
	XORPD X4, X4
	XORPD X5, X5
	XORPD X6, X6
	XORPD X7, X7
	XORQ  R9, R9

kloop:
	CMPQ    R9, DX
	JEQ     store
	MOVSD   (SI)(R9*8), X8
	MOVSD   (R11)(R9*8), X9
	MOVUPD  0(R8), X10
	MOVUPD  16(R8), X11
	MOVUPD  32(R8), X12
	MOVUPD  48(R8), X13
	UCOMISD X14, X8
	JNE     row0
	JPS     row0
	JMP     row1check

row0:
	UNPCKLPD X8, X8
	MOVAPD   X10, X15
	MULPD    X8, X15
	ADDPD    X15, X0
	MOVAPD   X11, X15
	MULPD    X8, X15
	ADDPD    X15, X1
	MOVAPD   X12, X15
	MULPD    X8, X15
	ADDPD    X15, X2
	MOVAPD   X13, X15
	MULPD    X8, X15
	ADDPD    X15, X3

row1check:
	UCOMISD X14, X9
	JNE     row1
	JPS     row1
	JMP     next

row1:
	UNPCKLPD X9, X9
	MULPD    X9, X10
	ADDPD    X10, X4
	MULPD    X9, X11
	ADDPD    X11, X5
	MULPD    X9, X12
	ADDPD    X12, X6
	MULPD    X9, X13
	ADDPD    X13, X7

next:
	ADDQ $64, R8
	INCQ R9
	JMP  kloop

store:
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	MOVUPD X4, 0(BX)
	MOVUPD X5, 16(BX)
	MOVUPD X6, 32(BX)
	MOVUPD X7, 48(BX)
	ADDQ   $64, DI
	ADDQ   $64, BX
	DECQ   CX
	JMP    block

done:
	RET
