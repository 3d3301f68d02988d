// Eight-lane GF(2^255-19) arithmetic on AVX-512 IFMA: the X25519 ladder
// (x25519_amd64.go) and the field operations the Ed25519 check composes
// (verify_amd64.go).
//
// A field element is five limbs in radix 2^52, one ZMM register (or
// 64-byte row) per limb and one 64-bit lane per agreement or signature.
// VPMADD52{L,H}UQ read only the low 52 bits of a limb, so an element
// that feeds a multiplication is carried: each limb's bits above 52 added
// into the next, limb 4 below 2^47 + 2^10. Where the element feeds
// nothing else, the bits a carry moved up are left standing in the limb
// they came from (the multiplier does not see them); an element that is
// also added or subtracted has them cleared, and is tight. A product that
// feeds only additions and subtractions is left loose — folded below
// 2^260 but not carried, every limb below 2^56 — and the sum or
// difference carries it. Nothing branches on, or indexes by, a lane's
// value: the ladder's conditional swap is a masked blend.
//
// Register roles, fixed across the file:
//
//	Z0-Z4    first operand            Z5-Z9    second operand
//	Z10-Z19  product columns t0-t9    Z20-Z21  scratch
//	Z24      2^52-1                   Z25      2^47-1
//	Z26      608 = 2^260 mod p        Z27      19 = 2^255 mod p
//	Z28      121666 = (A+2)/4         Z29-Z31  limbs 0, 1-3 and 4 of 1088p
//	K1       the ladder's swap mask

//go:build !purego

#include "textflag.h"

// Offsets of the ladder state, in ladderAsm's frame: nine 320-byte
// elements, the base point, the two running points and four temporaries.
#define oX1 0
#define oX2 320
#define oZ2 640
#define oX3 960
#define oZ3 1280
#define oT0 1600
#define oT1 1920
#define oT2 2240
#define oT3 2560

// CONSTS fills Z24-Z31. 1088p is (2^58-20672, 2^58-64, 2^58-64, 2^58-64,
// 2^57+2^53-64): every limb is at least 2^57, above any limb a loose
// element has, so adding it ahead of a subtraction keeps every limb
// non-negative.
#define CONSTS \
	MOVQ         $0xfffffffffffff, AX; \
	VPBROADCASTQ AX, Z24; \
	MOVQ         $0x7fffffffffff, AX; \
	VPBROADCASTQ AX, Z25; \
	MOVQ         $608, AX; \
	VPBROADCASTQ AX, Z26; \
	MOVQ         $19, AX; \
	VPBROADCASTQ AX, Z27; \
	MOVQ         $121666, AX; \
	VPBROADCASTQ AX, Z28; \
	MOVQ         $0x3ffffffffffaf40, AX; \
	VPBROADCASTQ AX, Z29; \
	MOVQ         $0x3ffffffffffffc0, AX; \
	VPBROADCASTQ AX, Z30; \
	MOVQ         $0x21fffffffffffc0, AX; \
	VPBROADCASTQ AX, Z31

#define LOADA(base, off) \
	VMOVDQU64 off+0(base), Z0; \
	VMOVDQU64 off+64(base), Z1; \
	VMOVDQU64 off+128(base), Z2; \
	VMOVDQU64 off+192(base), Z3; \
	VMOVDQU64 off+256(base), Z4

#define LOADB(base, off) \
	VMOVDQU64 off+0(base), Z5; \
	VMOVDQU64 off+64(base), Z6; \
	VMOVDQU64 off+128(base), Z7; \
	VMOVDQU64 off+192(base), Z8; \
	VMOVDQU64 off+256(base), Z9

#define LOADT(base, off) \
	VMOVDQU64 off+0(base), Z10; \
	VMOVDQU64 off+64(base), Z11; \
	VMOVDQU64 off+128(base), Z12; \
	VMOVDQU64 off+192(base), Z13; \
	VMOVDQU64 off+256(base), Z14

#define STORE(base, off, r0, r1, r2, r3, r4) \
	VMOVDQU64 r0, off+0(base); \
	VMOVDQU64 r1, off+64(base); \
	VMOVDQU64 r2, off+128(base); \
	VMOVDQU64 r3, off+192(base); \
	VMOVDQU64 r4, off+256(base)

#define STORET(base, off) STORE(base, off, Z10, Z11, Z12, Z13, Z14)

#define ZEROT \
	VPXORQ Z10, Z10, Z10; \
	VPXORQ Z11, Z11, Z11; \
	VPXORQ Z12, Z12, Z12; \
	VPXORQ Z13, Z13, Z13; \
	VPXORQ Z14, Z14, Z14; \
	VPXORQ Z15, Z15, Z15; \
	VPXORQ Z16, Z16, Z16; \
	VPXORQ Z17, Z17, Z17; \
	VPXORQ Z18, Z18, Z18; \
	VPXORQ Z19, Z19, Z19

// MAC adds the 104-bit product a*b to the column pair lo, hi: its low 52
// bits to lo, its high 52 bits to hi, the next column up.
#define MAC(a, b, lo, hi) \
	VPMADD52LUQ b, a, lo; \
	VPMADD52HUQ b, a, hi

// PRODUCT accumulates the 25 partial products of Z0-Z4 by Z5-Z9 into the
// columns: column k holds at most ten 52-bit halves, so stays below 2^56.
#define PRODUCT \
	MAC(Z0, Z5, Z10, Z11); MAC(Z0, Z6, Z11, Z12); MAC(Z0, Z7, Z12, Z13); MAC(Z0, Z8, Z13, Z14); MAC(Z0, Z9, Z14, Z15); \
	MAC(Z1, Z5, Z11, Z12); MAC(Z1, Z6, Z12, Z13); MAC(Z1, Z7, Z13, Z14); MAC(Z1, Z8, Z14, Z15); MAC(Z1, Z9, Z15, Z16); \
	MAC(Z2, Z5, Z12, Z13); MAC(Z2, Z6, Z13, Z14); MAC(Z2, Z7, Z14, Z15); MAC(Z2, Z8, Z15, Z16); MAC(Z2, Z9, Z16, Z17); \
	MAC(Z3, Z5, Z13, Z14); MAC(Z3, Z6, Z14, Z15); MAC(Z3, Z7, Z15, Z16); MAC(Z3, Z8, Z16, Z17); MAC(Z3, Z9, Z17, Z18); \
	MAC(Z4, Z5, Z14, Z15); MAC(Z4, Z6, Z15, Z16); MAC(Z4, Z7, Z16, Z17); MAC(Z4, Z8, Z17, Z18); MAC(Z4, Z9, Z18, Z19)

// SQUARE is PRODUCT for Z0-Z4 by themselves: the ten cross products once,
// doubled, then the five squares. A column again holds at most ten halves.
#define SQUARE \
	MAC(Z0, Z1, Z11, Z12); MAC(Z0, Z2, Z12, Z13); MAC(Z0, Z3, Z13, Z14); MAC(Z0, Z4, Z14, Z15); \
	MAC(Z1, Z2, Z13, Z14); MAC(Z1, Z3, Z14, Z15); MAC(Z1, Z4, Z15, Z16); \
	MAC(Z2, Z3, Z15, Z16); MAC(Z2, Z4, Z16, Z17); \
	MAC(Z3, Z4, Z17, Z18); \
	VPADDQ Z11, Z11, Z11; VPADDQ Z12, Z12, Z12; VPADDQ Z13, Z13, Z13; VPADDQ Z14, Z14, Z14; \
	VPADDQ Z15, Z15, Z15; VPADDQ Z16, Z16, Z16; VPADDQ Z17, Z17, Z17; VPADDQ Z18, Z18, Z18; \
	MAC(Z0, Z0, Z10, Z11); MAC(Z1, Z1, Z12, Z13); MAC(Z2, Z2, Z14, Z15); MAC(Z3, Z3, Z16, Z17); MAC(Z4, Z4, Z18, Z19)

// FOLD moves column hi into columns lo and lo+1 by 2^260 = 608 (mod p):
// its low 52 bits (all the multiplier reads) times 608 split across both,
// its high bits times 608 (below 2^14) into lo+1.
#define FOLD(hi, lo, lo1) \
	VPSRLQ      $52, hi, Z21; \
	MAC(hi, Z26, lo, lo1); \
	VPMADD52LUQ Z26, Z21, lo1

// FOLDS takes the ten product columns to a loose element in Z10-Z14.
// Column 9 is the high half of the product of the two limbs 4, below
// (2^47 + 2^10)^2 / 2^52 < 2^42.01, so 608 times it is below 2^52 and
// folds whole into Z14.
#define FOLDS \
	FOLD(Z15, Z10, Z11); \
	FOLD(Z16, Z11, Z12); \
	FOLD(Z17, Z12, Z13); \
	FOLD(Z18, Z13, Z14); \
	VPMADD52LUQ Z26, Z19, Z14

// CARRY adds the bits of column lo above 52 into column hi; CLEAR then
// drops them from lo.
#define CARRY(lo, hi) \
	VPSRLQ $52, lo, Z20; \
	VPADDQ Z20, hi, hi

#define CLEAR(lo) \
	VPANDQ Z24, lo, lo

#define CHAIN(r0, r1, r2, r3, r4) \
	CARRY(r0, r1); \
	CARRY(r1, r2); \
	CARRY(r2, r3); \
	CARRY(r3, r4)

#define CLEARS(r0, r1, r2, r3) \
	CLEAR(r0); \
	CLEAR(r1); \
	CLEAR(r2); \
	CLEAR(r3)

// NORM carries r0-r4, each below 2^62: everything at or above 2^255 comes
// back as 19 times itself into limb 0, then one carry pass up leaves limb
// 4 below 2^47 + 2^10 and the low 52 bits of limbs 0-3 as the value's.
// NORMT also clears what the carries moved up, for a tight element.
#define NORM(r0, r1, r2, r3, r4) \
	VPSRLQ      $47, r4, Z20; \
	VPANDQ      Z25, r4, r4; \
	VPMADD52LUQ Z27, Z20, r0; \
	CHAIN(r0, r1, r2, r3, r4)

#define NORMT(r0, r1, r2, r3, r4) \
	NORM(r0, r1, r2, r3, r4); \
	CLEARS(r0, r1, r2, r3)

// TIGHT is NORMT of Z10-Z14, where FOLDS leaves a product.
#define TIGHT \
	NORMT(Z10, Z11, Z12, Z13, Z14)

// The ladder's element operations, on the state at DI. Operands of MUL
// and SQR must be carried, their results are loose; SQRC and SQRT carry
// theirs, SQRT tight. ADD and SUB take loose or tight operands (not
// merely carried ones) and give carried results.
#define MUL(dst, a, b) \
	LOADA(DI, a); LOADB(DI, b); ZEROT; PRODUCT; FOLDS; STORET(DI, dst)

#define SQR(dst, a) \
	LOADA(DI, a); ZEROT; SQUARE; FOLDS; STORET(DI, dst)

#define SQRC(dst, a) \
	LOADA(DI, a); ZEROT; SQUARE; FOLDS; NORM(Z10, Z11, Z12, Z13, Z14); STORET(DI, dst)

#define SQRT(dst, a) \
	LOADA(DI, a); ZEROT; SQUARE; FOLDS; TIGHT; STORET(DI, dst)

#define ADD(dst, a, b) \
	LOADT(DI, a); \
	VPADDQ b+0(DI), Z10, Z10; \
	VPADDQ b+64(DI), Z11, Z11; \
	VPADDQ b+128(DI), Z12, Z12; \
	VPADDQ b+192(DI), Z13, Z13; \
	VPADDQ b+256(DI), Z14, Z14; \
	NORM(Z10, Z11, Z12, Z13, Z14); \
	STORET(DI, dst)

#define SUB(dst, a, b) \
	LOADT(DI, a); \
	VPADDQ Z29, Z10, Z10; \
	VPADDQ Z30, Z11, Z11; \
	VPADDQ Z30, Z12, Z12; \
	VPADDQ Z30, Z13, Z13; \
	VPADDQ Z31, Z14, Z14; \
	VPSUBQ b+0(DI), Z10, Z10; \
	VPSUBQ b+64(DI), Z11, Z11; \
	VPSUBQ b+128(DI), Z12, Z12; \
	VPSUBQ b+192(DI), Z13, Z13; \
	VPSUBQ b+256(DI), Z14, Z14; \
	NORM(Z10, Z11, Z12, Z13, Z14); \
	STORET(DI, dst)

// A24ADD sets dst = b + 121666*a, the products accumulated straight onto
// b: a carried, b tight, dst carried. The high half of 121666 times limb
// 4 (below 2^13) lands in Z15, a column at 2^260, and goes back into limb
// 0 as 608 times itself.
#define A24ADD(dst, a, b) \
	LOADT(DI, b); \
	LOADA(DI, a); \
	VPXORQ      Z15, Z15, Z15; \
	MAC(Z0, Z28, Z10, Z11); \
	MAC(Z1, Z28, Z11, Z12); \
	MAC(Z2, Z28, Z12, Z13); \
	MAC(Z3, Z28, Z13, Z14); \
	MAC(Z4, Z28, Z14, Z15); \
	VPMADD52LUQ Z26, Z15, Z10; \
	NORM(Z10, Z11, Z12, Z13, Z14); \
	STORET(DI, dst)

// SWAPSUM computes limb i of the sum and the difference of the ladder's
// (x, z) pair after the conditional swap: x is the row at p unless K1
// picks the one at q, z the row at p+320 unless K1 picks q+320. The swap
// is never stored: both pairs are rewritten before the next step reads
// them.
#define SWAPSUM(p, q, sumreg, diffreg, kreg) \
	VMOVDQU64 p(DI), Z0; \
	VMOVDQU64 q(DI), Z1; \
	VMOVDQU64 p+320(DI), Z2; \
	VMOVDQU64 q+320(DI), Z3; \
	VPBLENDMQ Z1, Z0, K1, Z4; \
	VPBLENDMQ Z3, Z2, K1, Z5; \
	VPADDQ    Z5, Z4, sumreg; \
	VPADDQ    kreg, Z4, diffreg; \
	VPSUBQ    Z5, diffreg, diffreg

// SWAPPED is SWAPSUM for all five limbs: sum in Z10-Z14, difference in
// Z15-Z19, both carried.
#define SWAPPED(p, q) \
	SWAPSUM(p+0, q+0, Z10, Z15, Z29); \
	SWAPSUM(p+64, q+64, Z11, Z16, Z30); \
	SWAPSUM(p+128, q+128, Z12, Z17, Z30); \
	SWAPSUM(p+192, q+192, Z13, Z18, Z30); \
	SWAPSUM(p+256, q+256, Z14, Z19, Z31); \
	NORM(Z10, Z11, Z12, Z13, Z14); \
	NORM(Z15, Z16, Z17, Z18, Z19)

// func ladderAsm(x1 *fe8, sched *[256]uint8, x2, z2 *fe8)
//
// The Montgomery ladder of crypto/ecdh's x25519ScalarMult in every lane,
// from the tight base point x1: bits 254 down to 0, each a conditional
// swap and a step of doubling and differential addition. Byte i of sched
// has bit l set when bit i of lane l's clamped scalar is, so each lane
// climbs by its own scalar. It writes the final (x2, z2), swapped back
// and carried. The state lives in this frame, 64-byte aligned so no row
// straddles a cache line.
TEXT ·ladderAsm(SB), 0, $2944-32
	MOVQ x1+0(FP), SI
	MOVQ sched+8(FP), DX
	LEAQ 63(SP), DI
	ANDQ $-64, DI
	CONSTS
	LOADA(SI, 0)
	STORE(DI, oX1, Z0, Z1, Z2, Z3, Z4)
	STORE(DI, oX3, Z0, Z1, Z2, Z3, Z4)
	VPXORQ       Z0, Z0, Z0
	MOVQ         $1, AX
	VPBROADCASTQ AX, Z1
	STORE(DI, oX2, Z1, Z0, Z0, Z0, Z0)
	STORE(DI, oZ2, Z0, Z0, Z0, Z0, Z0)
	STORE(DI, oZ3, Z1, Z0, Z0, Z0, Z0)
	MOVQ         $254, R8 // bit position
	XORQ         R9, R9   // lanes swapped after the last step

step:
	// The lanes to swap are those whose bit differs from the one before:
	// the schedule is read at the public bit position, its bytes only
	// ever reach the opmask.
	MOVBQZX (DX)(R8*1), BX
	XORQ    BX, R9
	KMOVW   R9, K1
	MOVQ    BX, R9

	SWAPPED(oX2, oX3)             // A = x2 + z2, B = x2 - z2
	STORE(DI, oT2, Z10, Z11, Z12, Z13, Z14)
	STORE(DI, oT1, Z15, Z16, Z17, Z18, Z19)
	SWAPPED(oX3, oX2)             // C = x3 + z3, D = x3 - z3
	STORE(DI, oT3, Z10, Z11, Z12, Z13, Z14)
	STORE(DI, oT0, Z15, Z16, Z17, Z18, Z19)

	MUL(oZ3, oT0, oT2)    // DA
	MUL(oZ2, oT3, oT1)    // CB
	SQRT(oT0, oT1)        // BB
	SQRT(oT1, oT2)        // AA
	ADD(oX3, oZ3, oZ2)    // DA + CB
	SUB(oZ2, oZ3, oZ2)    // DA - CB
	MUL(oX2, oT1, oT0)    // x2 = AA * BB
	SUB(oT1, oT1, oT0)    // E = AA - BB
	SQRC(oZ2, oZ2)        // (DA - CB)^2
	A24ADD(oT0, oT1, oT0) // BB + 121666 * E
	SQR(oX3, oX3)         // x3 = (DA + CB)^2
	MUL(oZ3, oX1, oZ2)    // z3 = x1 * (DA - CB)^2
	MUL(oZ2, oT1, oT0)    // z2 = E * (BB + 121666 * E)

	DECQ R8
	JGE  step

	// The last swap, then x2 and z2 carried for the inversion.
	KMOVW     R9, K1
	MOVQ      x2+16(FP), SI
	LOADT(DI, oX2)
	LOADA(DI, oX3)
	VPBLENDMQ Z0, Z10, K1, Z10
	VPBLENDMQ Z1, Z11, K1, Z11
	VPBLENDMQ Z2, Z12, K1, Z12
	VPBLENDMQ Z3, Z13, K1, Z13
	VPBLENDMQ Z4, Z14, K1, Z14
	NORM(Z10, Z11, Z12, Z13, Z14)
	STORET(SI, 0)
	MOVQ      z2+24(FP), SI
	LOADT(DI, oZ2)
	LOADA(DI, oZ3)
	VPBLENDMQ Z0, Z10, K1, Z10
	VPBLENDMQ Z1, Z11, K1, Z11
	VPBLENDMQ Z2, Z12, K1, Z12
	VPBLENDMQ Z3, Z13, K1, Z13
	VPBLENDMQ Z4, Z14, K1, Z14
	NORM(Z10, Z11, Z12, Z13, Z14)
	STORET(SI, 0)

	VZEROUPPER
	RET

// func feMul8(out, a, b *fe8)
//
// out = a * b, tight; a and b carried.
TEXT ·feMul8(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	CONSTS
	LOADA(SI, 0)
	LOADB(DX, 0)
	ZEROT
	PRODUCT
	FOLDS
	TIGHT
	STORET(DI, 0)
	VZEROUPPER
	RET

// func feSqr8(out, a *fe8, n int)
//
// out = a^(2^n), tight; a carried, n >= 1. The n squarings stay in
// registers.
TEXT ·feSqr8(SB), NOSPLIT, $0-24
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	CONSTS
	LOADA(SI, 0)

sqr:
	ZEROT
	SQUARE
	FOLDS
	TIGHT
	VMOVDQA64 Z10, Z0
	VMOVDQA64 Z11, Z1
	VMOVDQA64 Z12, Z2
	VMOVDQA64 Z13, Z3
	VMOVDQA64 Z14, Z4
	DECQ      CX
	JNZ       sqr

	STORE(DI, 0, Z0, Z1, Z2, Z3, Z4)
	VZEROUPPER
	RET

// func feAdd8(out, a, b *fe8)
//
// out = a + b, tight; a and b tight.
TEXT ·feAdd8(SB), NOSPLIT, $0-24
	MOVQ   out+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   b+16(FP), DX
	CONSTS
	LOADT(SI, 0)
	VPADDQ 0(DX), Z10, Z10
	VPADDQ 64(DX), Z11, Z11
	VPADDQ 128(DX), Z12, Z12
	VPADDQ 192(DX), Z13, Z13
	VPADDQ 256(DX), Z14, Z14
	TIGHT
	STORET(DI, 0)
	VZEROUPPER
	RET

// func feSub8(out, a, b *fe8)
//
// out = a - b, tight; a and b tight. 1088p is added first, so no limb
// goes negative.
TEXT ·feSub8(SB), NOSPLIT, $0-24
	MOVQ   out+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   b+16(FP), DX
	CONSTS
	LOADT(SI, 0)
	VPADDQ Z29, Z10, Z10
	VPADDQ Z30, Z11, Z11
	VPADDQ Z30, Z12, Z12
	VPADDQ Z30, Z13, Z13
	VPADDQ Z31, Z14, Z14
	VPSUBQ 0(DX), Z10, Z10
	VPSUBQ 64(DX), Z11, Z11
	VPSUBQ 128(DX), Z12, Z12
	VPSUBQ 192(DX), Z13, Z13
	VPSUBQ 256(DX), Z14, Z14
	TIGHT
	STORET(DI, 0)
	VZEROUPPER
	RET

// func feAddSub8(sum, diff, a, b *fe8)
//
// sum = a + b and diff = a - b, both tight; a and b tight.
TEXT ·feAddSub8(SB), NOSPLIT, $0-32
	MOVQ   sum+0(FP), DI
	MOVQ   diff+8(FP), R8
	MOVQ   a+16(FP), SI
	MOVQ   b+24(FP), DX
	CONSTS
	LOADA(SI, 0)
	LOADB(DX, 0)
	VPADDQ Z5, Z0, Z10
	VPADDQ Z6, Z1, Z11
	VPADDQ Z7, Z2, Z12
	VPADDQ Z8, Z3, Z13
	VPADDQ Z9, Z4, Z14
	VPADDQ Z29, Z0, Z15
	VPADDQ Z30, Z1, Z16
	VPADDQ Z30, Z2, Z17
	VPADDQ Z30, Z3, Z18
	VPADDQ Z31, Z4, Z19
	VPSUBQ Z5, Z15, Z15
	VPSUBQ Z6, Z16, Z16
	VPSUBQ Z7, Z17, Z17
	VPSUBQ Z8, Z18, Z18
	VPSUBQ Z9, Z19, Z19
	TIGHT
	NORMT(Z15, Z16, Z17, Z18, Z19)
	STORET(DI, 0)
	STORE(R8, 0, Z15, Z16, Z17, Z18, Z19)
	VZEROUPPER
	RET

// func xgetbv0() uint32
//
// XCR0's low word: which register state the operating system saves. Only
// valid once CPUID.1:ECX.OSXSAVE (bit 27) is set.
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL   CX, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET
