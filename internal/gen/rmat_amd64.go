package gen

import "kronlab/internal/cpu"

// rmatBlock is stream.advance and the scalar body's decode in assembly
// (rmat_amd64.s), eight outputs per instruction: it replaces the outputs s
// holds by the next streamLen, in place, and writes every word of b with
// the row bit, column bit and retry-band bit of each output it made. It
// runs only where hasAVX512 is set.
//
//go:noescape
func rmatBlock(s *stream, tA, tAB, tABC uint64, b *masks)

// hasAVX512 gives RMAT rmatBlock for every buffer after the seeded one. It
// is cpu.Probe's answer, read once, here, and only tests set it afterwards:
// the machine picks the body, not a flag.
var _, hasAVX512 = cpu.Probe()
