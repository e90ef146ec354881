package core

import (
	"runtime/debug"
	"slices"
	"syscall"
	"testing"
	"unsafe"

	"kronlab/internal/graph"
)

// TestExpandGuardPage ends ExpandPackedTo's and ExpandNarrowTo's src, and
// then their dst, exactly at the boundary of an inaccessible page, for
// every length 0–40 in every tier — and in the avx512 tier addPacked's: a
// load or a store one byte past len is a fault (a prefetch is not, and the wide loops issue them pfDist past
// every line they read; nor is an element addNarrowTo's masked tail masks
// off).
func TestExpandGuardPage(t *testing.T) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	// atGuard is n arcs whose last byte is the last accessible one.
	atGuard := func(n int) []graph.Edge {
		return unsafe.Slice((*graph.Edge)(unsafe.Pointer(&mem[page-16*n])), n)
	}
	packedAtGuard := func(n int) []uint64 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&mem[page-8*n])), n)
	}
	narrowAtGuard := func(n int) []uint32 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&mem[page-4*n])), n)
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))

	arcs := make([]graph.Edge, 40)
	for i := range arcs {
		arcs[i] = graph.Edge{U: int64(i) << 33, V: -int64(i)}
	}
	eachTier(func(tier string) {
		for n := 0; n <= len(arcs); n++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s, len %d: a body touched the guard page: %v", tier, n, r)
					}
				}()
				packed, twin := packedTwin(arcs[:n], 0)
				words := ExpandPackedTo(nil, packed, 5)
				wsrc := packedAtGuard(n)
				copy(wsrc, packed)
				if got := ExpandPackedTo(make([]uint64, 0, n), wsrc, 5); !slices.Equal(got, words) {
					t.Fatalf("%s, len %d, packedTo src at the guard: got %#x, want %#x", tier, n, got, words)
				}
				if got := ExpandPackedTo(packedAtGuard(n)[:0], packed, 5); !slices.Equal(got, words) {
					t.Fatalf("%s, len %d, packedTo dst at the guard: got %#x, want %#x", tier, n, got, words)
				}
				narrow := make([]uint32, n)
				for i, p := range packed {
					narrow[i] = uint32(uint16(p)) | uint32(uint16(p>>32))<<16
				}
				words = make([]uint64, n)
				addNarrowToGo(words, narrow, 5)
				nsrc := narrowAtGuard(n)
				copy(nsrc, narrow)
				if got := ExpandNarrowTo(make([]uint64, 0, n), nsrc, 5); !slices.Equal(got, words) {
					t.Fatalf("%s, len %d, narrowTo src at the guard: got %#x, want %#x", tier, n, got, words)
				}
				if got := ExpandNarrowTo(packedAtGuard(n)[:0], narrow, 5); !slices.Equal(got, words) {
					t.Fatalf("%s, len %d, narrowTo dst at the guard: got %#x, want %#x", tier, n, got, words)
				}
				if tier != "avx512" {
					return
				}
				want := expandPerEdge(nil, twin, 5, -9)
				src := packedAtGuard(n)
				copy(src, packed)
				got := make([]graph.Edge, n)
				if addPacked(got, src, 5, -9); !slices.Equal(got, want) {
					t.Fatalf("%s, len %d, packed src at the guard: got %v, want %v", tier, n, got, want)
				}
				if addPacked(atGuard(n), packed, 5, -9); !slices.Equal(atGuard(n), want) {
					t.Fatalf("%s, len %d, packed dst at the guard: got %v, want %v", tier, n, atGuard(n), want)
				}
			}()
		}
	}, func(tier, missing string) { t.Logf("%s not run: host lacks %s", tier, missing) })
}
