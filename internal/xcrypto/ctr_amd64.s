// Copyright 2024 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE-go file.

// AES-256-CTR keystream kernel and encryption-key expansion, adapted from
// the Go distribution's crypto/internal/fips140/aes (ctr_amd64.s and
// expandKeyAsm in aes_amd64.s, go1.24): fixed at AES-256's 14 rounds, so
// the round-count argument and the 128/192-bit branches are gone; the
// expansion writes no decryption schedule; the unrolled per-block lines
// are folded into macros. Instruction selection and order are upstream's.

//go:build !purego

#include "textflag.h"

DATA bswapMask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA bswapMask<>+8(SB)/8, $0x0001020304050607
GLOBL bswapMask<>(SB), RODATA|NOPTR, $16

// ARGS loads the common arguments: CX = schedule, DX = dst, BX = src,
// DI:SI = the 128-bit counter, X0 = the mask that turns the two
// little-endian limbs into one big-endian block.
#define ARGS \
	MOVQ  xk+0(FP), CX; \
	MOVQ  dst+8(FP), DX; \
	MOVQ  src+16(FP), BX; \
	MOVQ  ivlo+24(FP), SI; \
	MOVQ  ivhi+32(FP), DI; \
	MOVOU bswapMask<>+0(SB), X0

// CTR writes the current counter block into x; NEXT steps the counter,
// carrying from the low limb into the high one.
#define CTR(x) \
	MOVQ   SI, x; \
	PINSRQ $0x01, DI, x; \
	PSHUFB X0, x

#define NEXT \
	ADDQ $0x01, SI; \
	ADCQ $0x00, DI

// OPn applies op with the round key in X0 to the n blocks in X1..Xn.
#define OP1(op) op X0, X1
#define OP2(op) OP1(op); op X0, X2
#define OP4(op) OP2(op); op X0, X3; op X0, X4
#define OP8(op) OP4(op); op X0, X5; op X0, X6; op X0, X7; op X0, X8

// ENCRYPT runs AES-256's 14 rounds over the blocks OPn covers with one
// round-key load per round whatever n is; the blocks' rounds do not
// depend on each other, so the AES unit keeps n of them in flight.
#define ENCRYPT(OPn) \
	MOVUPS (CX), X0; OPn(PXOR); \
	MOVUPS 16(CX), X0; OPn(AESENC); \
	MOVUPS 32(CX), X0; OPn(AESENC); \
	MOVUPS 48(CX), X0; OPn(AESENC); \
	MOVUPS 64(CX), X0; OPn(AESENC); \
	MOVUPS 80(CX), X0; OPn(AESENC); \
	MOVUPS 96(CX), X0; OPn(AESENC); \
	MOVUPS 112(CX), X0; OPn(AESENC); \
	MOVUPS 128(CX), X0; OPn(AESENC); \
	MOVUPS 144(CX), X0; OPn(AESENC); \
	MOVUPS 160(CX), X0; OPn(AESENC); \
	MOVUPS 176(CX), X0; OPn(AESENC); \
	MOVUPS 192(CX), X0; OPn(AESENC); \
	MOVUPS 208(CX), X0; OPn(AESENC); \
	MOVUPS 224(CX), X0; OPn(AESENCLAST)

// XOR stores the src block at off, XORed with keystream block ks, into
// dst at off. A block is loaded before it is stored and blocks go in
// ascending order, so dst may be exactly src (and nothing else of it).
#define XOR(off, ks) \
	MOVUPS off(BX), X0; \
	PXOR   ks, X0; \
	MOVUPS X0, off(DX)

// func ctrBlocks4Asm(xk *[60]uint32, dst, src *[64]byte, ivlo, ivhi uint64)
// Requires: AES, SSE, SSE2, SSE4.1, SSSE3
TEXT ·ctrBlocks4Asm(SB), NOSPLIT, $0-40
	ARGS
	CTR(X1)
	NEXT
	CTR(X2)
	NEXT
	CTR(X3)
	NEXT
	CTR(X4)
	ENCRYPT(OP4)
	XOR(0, X1)
	XOR(16, X2)
	XOR(32, X3)
	XOR(48, X4)
	RET

// func ctrBlocks8Asm(xk *[60]uint32, dst, src *[128]byte, ivlo, ivhi uint64)
// Requires: AES, SSE, SSE2, SSE4.1, SSSE3
TEXT ·ctrBlocks8Asm(SB), NOSPLIT, $0-40
	ARGS
	CTR(X1)
	NEXT
	CTR(X2)
	NEXT
	CTR(X3)
	NEXT
	CTR(X4)
	NEXT
	CTR(X5)
	NEXT
	CTR(X6)
	NEXT
	CTR(X7)
	NEXT
	CTR(X8)
	ENCRYPT(OP8)
	XOR(0, X1)
	XOR(16, X2)
	XOR(32, X3)
	XOR(48, X4)
	XOR(64, X5)
	XOR(80, X6)
	XOR(96, X7)
	XOR(112, X8)
	RET

// func expandKeyAsm(key *[32]byte, enc *[60]uint32)
// Requires: AES, SSE, SSE2
TEXT ·expandKeyAsm(SB), NOSPLIT, $0-16
	MOVQ            key+0(FP), AX
	MOVQ            enc+8(FP), BX
	MOVUPS          (AX), X0
	MOVUPS          X0, (BX)
	MOVUPS          16(AX), X2
	MOVUPS          X2, 16(BX)
	ADDQ            $0x20, BX
	PXOR            X4, X4
	AESKEYGENASSIST $0x01, X2, X1
	CALL            expandKey256a<>(SB)
	AESKEYGENASSIST $0x01, X0, X1
	CALL            expandKey256b<>(SB)
	AESKEYGENASSIST $0x02, X2, X1
	CALL            expandKey256a<>(SB)
	AESKEYGENASSIST $0x02, X0, X1
	CALL            expandKey256b<>(SB)
	AESKEYGENASSIST $0x04, X2, X1
	CALL            expandKey256a<>(SB)
	AESKEYGENASSIST $0x04, X0, X1
	CALL            expandKey256b<>(SB)
	AESKEYGENASSIST $0x08, X2, X1
	CALL            expandKey256a<>(SB)
	AESKEYGENASSIST $0x08, X0, X1
	CALL            expandKey256b<>(SB)
	AESKEYGENASSIST $0x10, X2, X1
	CALL            expandKey256a<>(SB)
	AESKEYGENASSIST $0x10, X0, X1
	CALL            expandKey256b<>(SB)
	AESKEYGENASSIST $0x20, X2, X1
	CALL            expandKey256a<>(SB)
	AESKEYGENASSIST $0x20, X0, X1
	CALL            expandKey256b<>(SB)
	AESKEYGENASSIST $0x40, X2, X1
	CALL            expandKey256a<>(SB)
	RET

// func expandKey256a<>()
// Requires: SSE, SSE2
TEXT expandKey256a<>(SB), NOSPLIT, $0
	PSHUFD $0xff, X1, X1
	SHUFPS $0x10, X0, X4
	PXOR   X4, X0
	SHUFPS $0x8c, X0, X4
	PXOR   X4, X0
	PXOR   X1, X0
	MOVUPS X0, (BX)
	ADDQ   $0x10, BX
	RET

// func expandKey256b<>()
// Requires: SSE, SSE2
TEXT expandKey256b<>(SB), NOSPLIT, $0
	PSHUFD $0xaa, X1, X1
	SHUFPS $0x10, X2, X4
	PXOR   X4, X2
	SHUFPS $0x8c, X2, X4
	PXOR   X4, X2
	PXOR   X1, X2
	MOVUPS X2, (BX)
	ADDQ   $0x10, BX
	RET

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET
