//go:build !amd64

package core

// eachTier calls f once per body (expand_amd64_test.go): off amd64 there
// is one, the portable loop, and nothing to force.
func eachTier(f func(name string), _ func(name, missing string)) { f("portable") }
