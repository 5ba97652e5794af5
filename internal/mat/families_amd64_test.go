//go:build amd64

package mat

import "testing"

// forEachKernelFamily runs f under every SIMD kernel family this CPU
// supports: as detected, and — on an AVX-512 host, where the AVX2 axpy
// family (vaxpy4asm/vaxpy1asm) would otherwise run in no test — once more
// with the 512-bit kernels switched off.
func forEachKernelFamily(t *testing.T, f func(t *testing.T)) {
	f(t)
	if !useAVX512 {
		return
	}
	t.Run("avx2", func(t *testing.T) {
		useAVX512 = false
		t.Cleanup(func() { useAVX512 = true })
		f(t)
	})
}
