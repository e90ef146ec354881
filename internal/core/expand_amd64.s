#include "textflag.h"

// func addEdges(dst, src []graph.Edge, u0, v0 int64)
//
// A graph.Edge{U, V int64} is one 128-bit lane: with X0 = (u0, v0) an arc
// is MOVOU load, PADDQ X0, MOVOU store. SSE2 only (GOAMD64=v1). The moves
// are the unaligned forms because a []Edge is only 8-byte aligned. Four
// arcs per iteration, then one lane at a time for the remainder.
TEXT ·addEdges(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ u0+48(FP), X0
	MOVQ v0+56(FP), X1
	PUNPCKLQDQ X1, X0 // X0 = (u0, v0)

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
