// Copyright 2024 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE-go file.

// SHA-256 block routine on the SHA extensions, adapted from the Go
// distribution's crypto/internal/fips140/sha256 (blockSHANI in
// sha256block_amd64.s, go1.24): the state is the bare [8]uint32 instead
// of a Digest; the round constants are their own 16-byte-stride table
// (upstream shares one doubled for its AVX2 routine); the VEX-encoded
// moves are SSE MOVOU/MOVOA, so nothing here needs AVX or an XGETBV
// check; the unrolled four-round groups are folded into macros.
// Instruction selection and order are upstream's.

//go:build !purego

#include "textflag.h"

// flipMask turns the four little-endian loads of a message block into the
// big-endian words SHA-256 is defined over.
DATA flipMask<>+0(SB)/8, $0x0405060700010203
DATA flipMask<>+8(SB)/8, $0x0c0d0e0f08090a0b
GLOBL flipMask<>(SB), RODATA|NOPTR, $16

// k256 is the round-constant table; PADDD reads it as an aligned memory
// operand, which the linker's natural alignment of a 256-byte symbol
// gives it (as it does upstream's).
DATA k256<>+0(SB)/4, $0x428a2f98
DATA k256<>+4(SB)/4, $0x71374491
DATA k256<>+8(SB)/4, $0xb5c0fbcf
DATA k256<>+12(SB)/4, $0xe9b5dba5
DATA k256<>+16(SB)/4, $0x3956c25b
DATA k256<>+20(SB)/4, $0x59f111f1
DATA k256<>+24(SB)/4, $0x923f82a4
DATA k256<>+28(SB)/4, $0xab1c5ed5
DATA k256<>+32(SB)/4, $0xd807aa98
DATA k256<>+36(SB)/4, $0x12835b01
DATA k256<>+40(SB)/4, $0x243185be
DATA k256<>+44(SB)/4, $0x550c7dc3
DATA k256<>+48(SB)/4, $0x72be5d74
DATA k256<>+52(SB)/4, $0x80deb1fe
DATA k256<>+56(SB)/4, $0x9bdc06a7
DATA k256<>+60(SB)/4, $0xc19bf174
DATA k256<>+64(SB)/4, $0xe49b69c1
DATA k256<>+68(SB)/4, $0xefbe4786
DATA k256<>+72(SB)/4, $0x0fc19dc6
DATA k256<>+76(SB)/4, $0x240ca1cc
DATA k256<>+80(SB)/4, $0x2de92c6f
DATA k256<>+84(SB)/4, $0x4a7484aa
DATA k256<>+88(SB)/4, $0x5cb0a9dc
DATA k256<>+92(SB)/4, $0x76f988da
DATA k256<>+96(SB)/4, $0x983e5152
DATA k256<>+100(SB)/4, $0xa831c66d
DATA k256<>+104(SB)/4, $0xb00327c8
DATA k256<>+108(SB)/4, $0xbf597fc7
DATA k256<>+112(SB)/4, $0xc6e00bf3
DATA k256<>+116(SB)/4, $0xd5a79147
DATA k256<>+120(SB)/4, $0x06ca6351
DATA k256<>+124(SB)/4, $0x14292967
DATA k256<>+128(SB)/4, $0x27b70a85
DATA k256<>+132(SB)/4, $0x2e1b2138
DATA k256<>+136(SB)/4, $0x4d2c6dfc
DATA k256<>+140(SB)/4, $0x53380d13
DATA k256<>+144(SB)/4, $0x650a7354
DATA k256<>+148(SB)/4, $0x766a0abb
DATA k256<>+152(SB)/4, $0x81c2c92e
DATA k256<>+156(SB)/4, $0x92722c85
DATA k256<>+160(SB)/4, $0xa2bfe8a1
DATA k256<>+164(SB)/4, $0xa81a664b
DATA k256<>+168(SB)/4, $0xc24b8b70
DATA k256<>+172(SB)/4, $0xc76c51a3
DATA k256<>+176(SB)/4, $0xd192e819
DATA k256<>+180(SB)/4, $0xd6990624
DATA k256<>+184(SB)/4, $0xf40e3585
DATA k256<>+188(SB)/4, $0x106aa070
DATA k256<>+192(SB)/4, $0x19a4c116
DATA k256<>+196(SB)/4, $0x1e376c08
DATA k256<>+200(SB)/4, $0x2748774c
DATA k256<>+204(SB)/4, $0x34b0bcb5
DATA k256<>+208(SB)/4, $0x391c0cb3
DATA k256<>+212(SB)/4, $0x4ed8aa4a
DATA k256<>+216(SB)/4, $0x5b9cca4f
DATA k256<>+220(SB)/4, $0x682e6ff3
DATA k256<>+224(SB)/4, $0x748f82ee
DATA k256<>+228(SB)/4, $0x78a5636f
DATA k256<>+232(SB)/4, $0x84c87814
DATA k256<>+236(SB)/4, $0x8cc70208
DATA k256<>+240(SB)/4, $0x90befffa
DATA k256<>+244(SB)/4, $0xa4506ceb
DATA k256<>+248(SB)/4, $0xbef9a3f7
DATA k256<>+252(SB)/4, $0xc67178f2
GLOBL k256<>(SB), RODATA|NOPTR, $256

// Registers: X1 = ABEF and X2 = CDGH, the working state in the order
// SHA256RNDS2 wants; X3..X6 = the four live message vectors; X0 = the
// four W+K words SHA256RNDS2 reads implicitly; X7 scratch; X8 = flipMask;
// X9, X10 = the state the block started from.

// LOAD reads message words 4i..4i+3 of the block at SI (off = 16i) into m
// and X0.
#define LOAD(off, m) \
	MOVOU  off(SI), X0; \
	PSHUFB X8, X0; \
	MOVOA  X0, m

// LO adds the round constants at koff to X0 and runs the first two rounds
// of a group of four; HI runs the other two.
#define LO(koff) \
	PADDD       koff(AX), X0; \
	SHA256RNDS2 X0, X1, X2

#define HI \
	PSHUFD      $0x0e, X0, X0; \
	SHA256RNDS2 X0, X2, X1

// EXTEND completes next, the message vector due after cur, from cur and
// the one before it, prev.
#define EXTEND(cur, prev, next) \
	MOVOA      cur, X7; \
	PALIGNR    $0x04, prev, X7; \
	PADDD      X7, next; \
	SHA256MSG2 cur, next

// GROUP is the steady state, rounds 16..51 four at a time: the rounds
// over cur interleaved with the schedule work for the vectors after it.
#define GROUP(koff, cur, prev, next) \
	MOVOA cur, X0; \
	LO(koff); \
	EXTEND(cur, prev, next); \
	HI; \
	SHA256MSG1 cur, prev

// func sha256BlocksAsm(state *[8]uint32, p []byte)
// Requires: SHA, SSE2, SSE4.1, SSSE3
TEXT ·sha256BlocksAsm(SB), NOSPLIT, $0-32
	MOVQ    state+0(FP), DI
	MOVQ    p_base+8(FP), SI
	MOVQ    p_len+16(FP), DX
	SHRQ    $0x06, DX
	SHLQ    $0x06, DX
	CMPQ    DX, $0x00
	JEQ     done
	ADDQ    SI, DX
	MOVOU   (DI), X1
	MOVOU   16(DI), X2
	PSHUFD  $0xb1, X1, X1
	PSHUFD  $0x1b, X2, X2
	MOVOA   X1, X7
	PALIGNR $0x08, X2, X1
	PBLENDW $0xf0, X7, X2
	MOVOU   flipMask<>+0(SB), X8
	LEAQ    k256<>+0(SB), AX

roundLoop:
	// save hash values for addition after rounds
	MOVOA X1, X9
	MOVOA X2, X10

	// rounds 0-15: the message itself
	LOAD(0, X3)
	LO(0)
	HI
	LOAD(16, X4)
	LO(16)
	HI
	SHA256MSG1 X4, X3
	LOAD(32, X5)
	LO(32)
	HI
	SHA256MSG1 X5, X4
	LOAD(48, X6)
	LO(48)
	EXTEND(X6, X5, X3)
	HI
	SHA256MSG1 X6, X5

	// rounds 16-51
	GROUP(64, X3, X6, X4)
	GROUP(80, X4, X3, X5)
	GROUP(96, X5, X4, X6)
	GROUP(112, X6, X5, X3)
	GROUP(128, X3, X6, X4)
	GROUP(144, X4, X3, X5)
	GROUP(160, X5, X4, X6)
	GROUP(176, X6, X5, X3)
	GROUP(192, X3, X6, X4)

	// rounds 52-63: the schedule runs out
	MOVOA X4, X0
	LO(208)
	EXTEND(X4, X3, X5)
	HI
	MOVOA X5, X0
	LO(224)
	EXTEND(X5, X4, X6)
	HI
	MOVOA X6, X0
	LO(240)
	HI

	// add current hash values with previously saved
	PADDD X9, X1
	PADDD X10, X2

	// advance data pointer; loop until buffer empty
	ADDQ $0x40, SI
	CMPQ DX, SI
	JNE  roundLoop

	// write hash values back in the correct order
	PSHUFD  $0x1b, X1, X1
	PSHUFD  $0xb1, X2, X2
	MOVOA   X1, X7
	PBLENDW $0xf0, X2, X1
	PALIGNR $0x08, X7, X2
	MOVOU   X1, (DI)
	MOVOU   X2, 16(DI)

done:
	RET

// func cpuid7EBX() uint32
TEXT ·cpuid7EBX(SB), NOSPLIT, $0-4
	XORL AX, AX
	XORL CX, CX
	CPUID
	XORL BX, BX
	CMPL AX, $7
	JLT  out
	MOVL $7, AX
	XORL CX, CX
	CPUID

out:
	MOVL BX, ret+0(FP)
	RET
