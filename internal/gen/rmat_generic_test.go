//go:build !amd64

package gen

// eachTier calls f once per R-MAT body (rmat_amd64_test.go): off amd64
// there is one, the scalar body, and nothing to force.
func eachTier(f func(name string), _ func(name, missing string)) { f("portable") }
