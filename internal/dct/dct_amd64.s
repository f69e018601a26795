//go:build amd64 && !noasm

#include "textflag.h"
#include "funcdata.h"

// AVX2 kernels for the per-block hot path. Bit-identity with the scalar
// code in dct.go is load-bearing (paper §5.2: encoder and decoder must
// agree exactly).

// dcMask clears word 0 (the DC coefficient) of the first coefficient load.
DATA dcMask<>+0(SB)/8, $0xFFFFFFFFFFFF0000
DATA dcMask<>+8(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA dcMask<>+16(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA dcMask<>+24(SB)/8, $0xFFFFFFFFFFFFFFFF
GLOBL dcMask<>(SB), RODATA|NOPTR, $32

// pairWords turns each 128-bit lane holding words a0..a3 b0..b3 into
// a0 b0 a1 b1 a2 b2 a3 b3.
DATA pairWords<>+0(SB)/8, $0x0B0A030209080100
DATA pairWords<>+8(SB)/8, $0x0F0E07060D0C0504
DATA pairWords<>+16(SB)/8, $0x0B0A030209080100
DATA pairWords<>+24(SB)/8, $0x0F0E07060D0C0504
GLOBL pairWords<>(SB), RODATA|NOPTR, $32

// DEQUANT dequantizes the 16 coefficients of rows 2k and 2k+1 in place
// (coefficient register c, quantizer row pair at off(DX)): y = sign(c) *
// |c|*q as int16, ORing into Y14 every bit that shows |c|*q > guard.
// VPABSW maps -32768 to the unsigned 32768, so the unsigned high/low
// product halves are exact for every int16.
#define DEQUANT(c, off) \
	VPABSW c, Y4; \
	VPMULHUW off(DX), Y4, Y5; \
	VPMULLW off(DX), Y4, Y4; \
	VPSUBUSW Y15, Y4, Y6; \
	VPOR Y5, Y14, Y14; \
	VPOR Y6, Y14, Y14; \
	VPSIGNW c, Y4, c; \
	VPERMQ $0xD8, c, c; \
	VPSHUFB Y12, c, c

// COLSUM sets dst to the column-pass sums of intermediate row y (byte
// offset yo = 4y into basisPairs), rounded: (Σ_v Basis[v][y]·D[v][u] +
// 4096) >> 13 for u = 0..7 in dword lanes.
#define COLSUM(yo, dst, t) \
	VPBROADCASTD yo(BX), dst; \
	VPMADDWD dst, Y0, dst; \
	VPBROADCASTD (32+yo)(BX), t; \
	VPMADDWD t, Y1, t; \
	VPADDD t, dst, dst; \
	VPBROADCASTD (64+yo)(BX), t; \
	VPMADDWD t, Y2, t; \
	VPADDD t, dst, dst; \
	VPBROADCASTD (96+yo)(BX), t; \
	VPMADDWD t, Y3, t; \
	VPADDD t, dst, dst; \
	VPADDD Y13, dst, dst; \
	VPSRAD $13, dst, dst

// COLPAIR computes intermediate rows y and y+1 and stores them packed to
// int16 at tmp row y (16 bytes per row).
#define COLPAIR(y) \
	COLSUM(4*y, Y8, Y9); \
	COLSUM(4*y+4, Y10, Y11); \
	VPACKSSDW Y10, Y8, Y8; \
	VPERMQ $0xD8, Y8, Y8; \
	VMOVDQU Y8, (16*y)(R8)

// ROWSUM sets Y8 to output row y's samples, rounded: (Σ_u Basis[u][x] ·
// tmp[y][u] + 4096) >> 13 for x = 0..7 in dword lanes.
#define ROWSUM(y) \
	VPBROADCASTD (16*y)(R8), Y8; \
	VPMADDWD Y4, Y8, Y8; \
	VPBROADCASTD (16*y+4)(R8), Y9; \
	VPMADDWD Y5, Y9, Y9; \
	VPADDD Y9, Y8, Y8; \
	VPBROADCASTD (16*y+8)(R8), Y9; \
	VPMADDWD Y6, Y9, Y9; \
	VPADDD Y9, Y8, Y8; \
	VPBROADCASTD (16*y+12)(R8), Y9; \
	VPMADDWD Y7, Y9, Y9; \
	VPADDD Y9, Y8, Y8; \
	VPADDD Y13, Y8, Y8; \
	VPSRAD $13, Y8, Y8

#define FULLROW(y) \
	ROWSUM(y); \
	VMOVDQU Y8, (32*y)(DI)

// EDGEROW stores only x = 0, 1, 6, 7 of an interior row.
#define EDGEROW(y) \
	ROWSUM(y); \
	VMOVQ X8, (32*y)(DI); \
	VEXTRACTI128 $1, Y8, X9; \
	VPEXTRQ $1, X9, (32*y+24)(DI)

// func inverseBorderI16(coef *int16, q *[64]uint16, dst *Block) bool
//
// inverseBorderGo in 16-bit lanes. Every AC |coef·q| must be at most
// 12403: then a column sum is at most 21641·12403 < 2^31 (21641 is the
// largest Σ_v |Basis[v][y]|), its rounded intermediate fits int16, and
// every row sum fits int32, so int16 products with int32 sums reproduce
// the scalar int64 arithmetic exactly. Otherwise the kernel returns false
// before it writes dst.
//
// Column pass: the dequantized rows are word-interleaved in pairs (v, v+1)
// so one VPMADDWD against a broadcast (Basis[v][y], Basis[v+1][y]) pair
// sums two rows for all eight columns. The rounded intermediates are packed
// to int16 rows in the frame. Row pass: the same instruction sums two
// columns at once, a broadcast (tmp[y][u], tmp[y][u+1]) pair against
// (Basis[u][x], Basis[u+1][x]) for x = 0..7 — the eight consecutive
// basisPairs entries of pair u/2.
TEXT ·inverseBorderI16(SB), $128-25
	NO_LOCAL_POINTERS
	MOVQ coef+0(FP), SI
	MOVQ q+8(FP), DX
	MOVQ dst+16(FP), DI
	MOVL $12403, AX
	VMOVD AX, X15
	VPBROADCASTW X15, Y15
	VMOVDQU pairWords<>(SB), Y12
	VPXOR Y14, Y14, Y14
	VMOVDQU 0(SI), Y0         // rows 0, 1
	VPAND dcMask<>(SB), Y0, Y0
	VMOVDQU 32(SI), Y1        // rows 2, 3
	VMOVDQU 64(SI), Y2        // rows 4, 5
	VMOVDQU 96(SI), Y3        // rows 6, 7
	DEQUANT(Y0, 0)
	DEQUANT(Y1, 32)
	DEQUANT(Y2, 64)
	DEQUANT(Y3, 96)
	VPTEST Y14, Y14
	JNE refuse

	MOVL $4096, AX
	VMOVD AX, X13
	VPBROADCASTD X13, Y13
	MOVQ $·basisPairs(SB), BX
	LEAQ tmp-128(SP), R8
	COLPAIR(0)
	COLPAIR(2)
	COLPAIR(4)
	COLPAIR(6)

	VMOVDQU 0(BX), Y4
	VMOVDQU 32(BX), Y5
	VMOVDQU 64(BX), Y6
	VMOVDQU 96(BX), Y7
	FULLROW(0)
	FULLROW(1)
	EDGEROW(2)
	EDGEROW(3)
	EDGEROW(4)
	EDGEROW(5)
	FULLROW(6)
	FULLROW(7)
	VZEROUPPER
	MOVB $1, ret+24(FP)
	RET

refuse:
	VZEROUPPER
	MOVB $0, ret+24(FP)
	RET

// func nonzeroMask64AVX2(coef *int16) uint64
//
// Raster-order occupancy mask of 64 int16 coefficients: compare words
// against zero, pack to bytes (fixing the in-lane interleave with VPERMQ),
// movemask, invert.
TEXT ·nonzeroMask64AVX2(SB), NOSPLIT, $0-16
	MOVQ coef+0(FP), SI
	VPXOR Y2, Y2, Y2
	VMOVDQU 0(SI), Y0         // words 0..15
	VMOVDQU 32(SI), Y1        // words 16..31
	VPCMPEQW Y2, Y0, Y0
	VPCMPEQW Y2, Y1, Y1
	VPACKSSWB Y1, Y0, Y0
	VPERMQ $0xD8, Y0, Y0
	VPMOVMSKB Y0, AX          // bit per word, set where zero
	VMOVDQU 64(SI), Y0        // words 32..47
	VMOVDQU 96(SI), Y1        // words 48..63
	VPCMPEQW Y2, Y0, Y0
	VPCMPEQW Y2, Y1, Y1
	VPACKSSWB Y1, Y0, Y0
	VPERMQ $0xD8, Y0, Y0
	VPMOVMSKB Y0, CX
	SHLQ $32, CX
	ORQ CX, AX
	NOTQ AX
	MOVQ AX, ret+8(FP)
	VZEROUPPER
	RET
