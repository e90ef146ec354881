#include "textflag.h"

// The lag-273 term, in bytes: output n is output n−607 (the one it
// replaces) plus output n−273, which for n < 273 is the buffer's old
// output n+334.
#define lagOld 2672
#define lagNew -2184

// DECODE compares the eight outputs in Z0, under the opmask k, with the
// thresholds broadcast in Z8–Z10 and with retry in Z11, after clearing their
// top bits (Z12), and stores the lanes' row bits (r ≥ t(A+B)) at 0(DI),
// their column bits ((r ≥ t(A)) ⊕ (r ≥ t(A+B)) ⊕ (r ≥ t(A+B+C))) at 80(DI)
// and their retry bits (r ≥ retry) at 160(DI). Each store is a KMOVW: its
// high byte, 0, is overwritten by the next chunk's.
#define DECODE(k) \
	VPANDQ  Z12, Z0, Z0;         \
	VPCMPUQ $5, Z8, Z0, k, K1;   \
	VPCMPUQ $5, Z9, Z0, k, K2;   \
	VPCMPUQ $5, Z10, Z0, k, K3;  \
	VPCMPUQ $5, Z11, Z0, k, K4;  \
	KXORW   K1, K2, K1;          \
	KXORW   K1, K3, K1;          \
	KMOVW   K2, (DI);            \
	KMOVW   K1, 80(DI);          \
	KMOVW   K4, 160(DI)

// func rmatBlock(s *stream, tA, tAB, tABC uint64, b *masks)
//
// Outputs go eight to a chunk, in order, from 0 to 606 (the last chunk
// holds seven). Outputs 0–271 add the old outputs 334 on, not yet replaced;
// 280–606 add the ones 273 back, already replaced: 273 is more than a
// chunk's eight lanes, so an earlier chunk made them. The chunk of
// 272–279 adds old output 606 in
// lane 0 and new outputs 0–6 in the rest, read under two opmasks; the last
// chunk reads and writes its seven lanes under one, so no access leaves s.
// VPCMPUQ's predicate 5 is unsigned ≥, which threshold's 2⁶³ — no output
// reaches it — needs.
TEXT ·rmatBlock(SB), NOSPLIT, $0-40
	MOVQ         s+0(FP), SI
	MOVQ         b+32(FP), DI
	VPBROADCASTQ tA+8(FP), Z8
	VPBROADCASTQ tAB+16(FP), Z9
	VPBROADCASTQ tABC+24(FP), Z10
	MOVQ         $0x7ffffffffffffe00, AX // retry
	VPBROADCASTQ AX, Z11
	VPTERNLOGQ   $0xff, Z12, Z12, Z12
	VPSRLQ       $1, Z12, Z12            // 2⁶³−1
	KXNORW       K7, K7, K7              // every lane
	MOVQ         $34, CX

old:
	VMOVDQU64 (SI), Z0
	VPADDQ    lagOld(SI), Z0, Z0
	VMOVDQU64 Z0, (SI)
	DECODE(K7)
	ADDQ      $64, SI
	INCQ      DI
	DECQ      CX
	JNZ       old

	MOVL        $1, AX
	KMOVW       AX, K5
	MOVL        $0xfe, AX
	KMOVW       AX, K6
	VMOVDQU64.Z lagOld(SI), K5, Z1
	VMOVDQU64   lagNew(SI), K6, Z1
	VPADDQ      (SI), Z1, Z0
	VMOVDQU64   Z0, (SI)
	DECODE(K7)
	ADDQ        $64, SI
	INCQ        DI
	MOVQ        $40, CX

new:
	VMOVDQU64 (SI), Z0
	VPADDQ    lagNew(SI), Z0, Z0
	VMOVDQU64 Z0, (SI)
	DECODE(K7)
	ADDQ      $64, SI
	INCQ      DI
	DECQ      CX
	JNZ       new

	MOVL        $0x7f, AX
	KMOVW       AX, K5
	VMOVDQU64.Z (SI), K5, Z0
	VMOVDQU64.Z lagNew(SI), K5, Z1
	VPADDQ      Z1, Z0, Z0
	VMOVDQU64   Z0, K5, (SI)
	DECODE(K5)
	MOVL        $0, 1(DI) // the masks' last bytes, past output 615
	MOVL        $0, 81(DI)
	MOVL        $0, 161(DI)
	VZEROUPPER
	RET
