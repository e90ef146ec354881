#include "textflag.h"

// func addEdges(dst, src []graph.Edge, u0, v0 int64)
//
// A graph.Edge{U, V int64} is one 128-bit lane: with X0 = (u0, v0) an arc
// is load, PADDQ X0, store. When hasAVX2 is set and there are ≥ 8 arcs,
// Y0 = (u0, v0, u0, v0) and eight arcs go per iteration behind two
// PREFETCHT0 of src pfDist bytes ahead, one per cache line consumed: src is
// a factor's arc slice in L2 and the loop waits on its fills, not on the
// store port (DESIGN §3a). A prefetch past the end of src never faults; the
// loads never leave src[:len]. Then VZEROUPPER and the SSE2 code
// (GOAMD64=v1), the whole body when hasAVX2 is clear: four arcs per
// iteration, then one. Every move is the unaligned form: a []Edge is only
// 8-byte aligned.
#define pfDist 1024

TEXT ·addEdges(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ u0+48(FP), X0
	MOVQ v0+56(FP), X1
	PUNPCKLQDQ X1, X0 // X0 = (u0, v0)

	CMPB ·hasAVX2(SB), $0
	JE   sse2
	CMPQ CX, $8
	JB   sse2
	VINSERTI128 $1, X0, Y0, Y0 // Y0 = (u0, v0, u0, v0)

loop8:
	PREFETCHT0 pfDist(SI)
	PREFETCHT0 pfDist+64(SI)
	VPADDQ  0(SI), Y0, Y1
	VPADDQ  32(SI), Y0, Y2
	VPADDQ  64(SI), Y0, Y3
	VPADDQ  96(SI), Y0, Y4
	VMOVDQU Y1, 0(DI)
	VMOVDQU Y2, 32(DI)
	VMOVDQU Y3, 64(DI)
	VMOVDQU Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JAE     loop8
	VZEROUPPER // X0 keeps (u0, v0); the < 8-arc remainder is SSE2's

sse2:
	CMPQ CX, $4
	JB   tail

loop4:
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
	SUBQ  $4, CX
	CMPQ  CX, $4
	JAE   loop4

tail:
	TESTQ CX, CX
	JZ    done

loop1:
	MOVOU (SI), X1
	PADDQ X0, X1
	MOVOU X1, (DI)
	ADDQ  $16, SI
	ADDQ  $16, DI
	DECQ  CX
	JNZ   loop1

done:
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
