//go:build !amd64

package gen

// hasAVX512 is amd64's probe (rmat_amd64.go); here RMAT draws every buffer
// through the scalar body.
const hasAVX512 = false

// rmatBlock is amd64's vector body; here nothing calls it.
func rmatBlock(*stream, uint64, uint64, uint64, *masks) {
	panic("gen: rmatBlock without AVX-512")
}
