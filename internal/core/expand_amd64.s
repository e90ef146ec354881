#include "textflag.h"

// pfDist is how far ahead of src, in bytes, the wide loops prefetch: src is
// a factor's arcs in L2, and they wait on its fills (DESIGN §3a).
#define pfDist 1024

// func addPacked(dst []graph.Edge, src []uint64, u0, v0 int64)
//
// src is graph.PackedArcs: VPMOVZXDQ widens an arc's dwords (u, v) into
// exactly one Edge lane, so with Z0 = (u0, v0)×4 four arcs are a 32-byte
// load, VPADDQ Z0 and a 64-byte store, sixteen an iteration behind two
// PREFETCHT0 pfDist ahead, one per line consumed. Around that loop runs one
// single-arc step with 8-byte loads, which never leave src[:len]: first
// until a 16-byte-aligned dst reaches a 64-byte boundary (a store that
// splits a line costs ×1.8; any other dst is not peeled), then for the
// remainder. Runs only where hasAVX512 is set.
TEXT ·addPacked(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ u0+48(FP), X0
	MOVQ v0+56(FP), X1
	PUNPCKLQDQ X1, X0         // X0 = (u0, v0)
	VSHUFI64X2 $0, Z0, Z0, Z0 // Z0 = (u0, v0)×4
	TESTQ      $15, DI
	JNZ        wide16

peel:
	TESTQ $63, DI
	JZ    wide16

one:
	TESTQ     CX, CX
	JZ        packedDone
	VPMOVZXDQ (SI), X1
	VPADDQ    X0, X1, X1
	VMOVDQU   X1, (DI)
	ADDQ      $8, SI
	ADDQ      $16, DI
	DECQ      CX
	JMP       peel

wide16:
	CMPQ CX, $16
	JB   one

loop16:
	PREFETCHT0 pfDist(SI)
	PREFETCHT0 pfDist+64(SI)
	VPMOVZXDQ  0(SI), Z1
	VPMOVZXDQ  32(SI), Z2
	VPMOVZXDQ  64(SI), Z3
	VPMOVZXDQ  96(SI), Z4
	VPADDQ     Z0, Z1, Z1
	VPADDQ     Z0, Z2, Z2
	VPADDQ     Z0, Z3, Z3
	VPADDQ     Z0, Z4, Z4
	VMOVDQU64  Z1, 0(DI)
	VMOVDQU64  Z2, 64(DI)
	VMOVDQU64  Z3, 128(DI)
	VMOVDQU64  Z4, 192(DI)
	ADDQ       $128, SI
	ADDQ       $256, DI
	SUBQ       $16, CX
	CMPQ       CX, $16
	JAE        loop16
	JMP        one

packedDone:
	VZEROUPPER
	RET

// func addPackedTo(dst, src []uint64, base uint64)
//
// src and dst are graph.PackedArcs words, u | v<<32, and base is u0 |
// v0<<32 with every u0+u and v0+v below 2³² (the caller's promise), so a
// 64-bit add per arc adds both halves and nothing carries from U into V:
// the body is load, PADDQ, store at whatever width the host has. Where
// hasAVX2 is set and ≥ 19 arcs are left, single arcs run until dst reaches
// a 32-byte boundary (≤ 3), then 16 arcs an iteration, four 256-bit VPADDQ
// behind two PREFETCHT0 pfDist ahead, one per line of src consumed. An
// AVX-512 host runs this loop too: a 512-bit one measured no faster in the
// engine's shape, where src is in L2. Then SSE2 (the whole body where
// hasAVX2 is clear): with ≥ 9 arcs left, one arc if dst is not 16-byte
// aligned, then 8 arcs an iteration; and the rest one ADDQ at a time. The
// loads never leave src[:len]; a prefetch past it never faults.
TEXT ·addPackedTo(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ base+48(FP), AX
	MOVQ AX, X0

	CMPB ·hasAVX2(SB), $0
	JE   xmm
	CMPQ CX, $19
	JB   xmm

ypeel:
	TESTQ $31, DI
	JZ    ywide
	MOVQ  (SI), DX
	ADDQ  AX, DX
	MOVQ  DX, (DI)
	ADDQ  $8, SI
	ADDQ  $8, DI
	DECQ  CX
	JMP   ypeel

ywide:
	VPBROADCASTQ X0, Y0 // Y0 = base×4

loop16:
	PREFETCHT0 pfDist(SI)
	PREFETCHT0 pfDist+64(SI)
	VPADDQ     0(SI), Y0, Y1
	VPADDQ     32(SI), Y0, Y2
	VPADDQ     64(SI), Y0, Y3
	VPADDQ     96(SI), Y0, Y4
	VMOVDQU    Y1, 0(DI)
	VMOVDQU    Y2, 32(DI)
	VMOVDQU    Y3, 64(DI)
	VMOVDQU    Y4, 96(DI)
	ADDQ       $128, SI
	ADDQ       $128, DI
	SUBQ       $16, CX
	CMPQ       CX, $16
	JAE        loop16
	VZEROUPPER

xmm:
	PUNPCKLQDQ X0, X0 // X0 = (base, base)
	CMPQ       CX, $9
	JB         word
	TESTQ      $8, DI
	JZ         loop8
	MOVQ       (SI), DX
	ADDQ       AX, DX
	MOVQ       DX, (DI)
	ADDQ       $8, SI
	ADDQ       $8, DI
	DECQ       CX

loop8:
	MOVOU 0(SI), X1
	MOVOU 16(SI), X2
	MOVOU 32(SI), X3
	MOVOU 48(SI), X4
	PADDQ X0, X1
	PADDQ X0, X2
	PADDQ X0, X3
	PADDQ X0, X4
	MOVOU X1, 0(DI)
	MOVOU X2, 16(DI)
	MOVOU X3, 32(DI)
	MOVOU X4, 48(DI)
	ADDQ  $64, SI
	ADDQ  $64, DI
	SUBQ  $8, CX
	CMPQ  CX, $8
	JAE   loop8

word:
	TESTQ CX, CX
	JZ    wordsDone

loopWord:
	MOVQ (SI), DX
	ADDQ AX, DX
	MOVQ DX, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  loopWord

wordsDone:
	RET

// func addNarrowTo(dst []uint64, src []uint32, base uint64)
//
// src is graph.NarrowArcs, u | v<<16: VPMOVZXWD widens an arc's halfwords
// (u, v) into exactly one PackedArcs word u | v<<32, so with Z0 = base×8
// eight arcs are a 32-byte load, VPADDQ Z0 and a 64-byte store — half the
// bytes read an arc of addPackedTo's source, which in the engine's shape
// streams from L2 and bounds the loop. Thirty-two arcs an iteration, then
// eight at a time, then the remainder of fewer than eight as one load and
// one store under the opmask K1 of its 2·n dwords: a masked-off element is
// neither read (no fault past src[:len]) nor written. Runs only where
// hasAVX512 is set.
TEXT ·addNarrowTo(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), CX
	VPBROADCASTQ base+48(FP), Z0
	CMPQ         CX, $32
	JB           narrow8

loop32:
	VPMOVZXWD 0(SI), Z1
	VPMOVZXWD 32(SI), Z2
	VPMOVZXWD 64(SI), Z3
	VPMOVZXWD 96(SI), Z4
	VPADDQ    Z0, Z1, Z1
	VPADDQ    Z0, Z2, Z2
	VPADDQ    Z0, Z3, Z3
	VPADDQ    Z0, Z4, Z4
	VMOVDQU64 Z1, 0(DI)
	VMOVDQU64 Z2, 64(DI)
	VMOVDQU64 Z3, 128(DI)
	VMOVDQU64 Z4, 192(DI)
	ADDQ      $128, SI
	ADDQ      $256, DI
	SUBQ      $32, CX
	CMPQ      CX, $32
	JAE       loop32

narrow8:
	CMPQ      CX, $8
	JB        narrowTail
	VPMOVZXWD (SI), Z1
	VPADDQ    Z0, Z1, Z1
	VMOVDQU64 Z1, (DI)
	ADDQ      $32, SI
	ADDQ      $64, DI
	SUBQ      $8, CX
	JMP       narrow8

narrowTail:
	TESTQ       CX, CX
	JZ          narrowDone
	ADDQ        CX, CX // 2·n dwords
	MOVL        $1, AX
	SHLL        CX, AX
	DECL        AX
	KMOVW       AX, K1
	VPMOVZXWD.Z (SI), K1, Z1
	VPADDQ      Z0, Z1, Z1
	VMOVDQU32   Z1, K1, (DI)

narrowDone:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32): the low half of XCR0.
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
