//go:build amd64

#include "textflag.h"

// AVX2 implementations of the fused 4-row axpy kernels. Lanes map to
// independent output elements of dst, and each element receives its four
// row contributions strictly in row order (mul, then add, one row at a
// time), so results are bitwise identical to the scalar Go tile in
// kernels.go — vector parallelism across elements, not across the sum.
//
// Both functions require len(dst) to be a multiple of 4 (the Go wrappers
// peel the scalar tail) and len(r*) >= len(dst). dst must not alias any r.

// func vaxpy4asm(dst, r0, r1, r2, r3 []float64, x0, x1, x2, x3 float64)
TEXT ·vaxpy4asm(SB), NOSPLIT, $0-152
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R9
	MOVQ r0_base+24(FP), SI
	MOVQ r1_base+48(FP), DX
	MOVQ r2_base+72(FP), CX
	MOVQ r3_base+96(FP), R8
	VBROADCASTSD x0+120(FP), Y0
	VBROADCASTSD x1+128(FP), Y1
	VBROADCASTSD x2+136(FP), Y2
	VBROADCASTSD x3+144(FP), Y3
	XORQ AX, AX
	MOVQ R9, BX
	ANDQ $-16, BX

loop16:
	CMPQ AX, BX
	JGE  tail4
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	VMOVUPD 64(DI)(AX*8), Y6
	VMOVUPD 96(DI)(AX*8), Y7

	VMOVUPD (SI)(AX*8), Y8
	VMOVUPD 32(SI)(AX*8), Y9
	VMOVUPD 64(SI)(AX*8), Y10
	VMOVUPD 96(SI)(AX*8), Y11
	VMULPD  Y0, Y8, Y8
	VMULPD  Y0, Y9, Y9
	VMULPD  Y0, Y10, Y10
	VMULPD  Y0, Y11, Y11
	VADDPD  Y8, Y4, Y4
	VADDPD  Y9, Y5, Y5
	VADDPD  Y10, Y6, Y6
	VADDPD  Y11, Y7, Y7

	VMOVUPD (DX)(AX*8), Y8
	VMOVUPD 32(DX)(AX*8), Y9
	VMOVUPD 64(DX)(AX*8), Y10
	VMOVUPD 96(DX)(AX*8), Y11
	VMULPD  Y1, Y8, Y8
	VMULPD  Y1, Y9, Y9
	VMULPD  Y1, Y10, Y10
	VMULPD  Y1, Y11, Y11
	VADDPD  Y8, Y4, Y4
	VADDPD  Y9, Y5, Y5
	VADDPD  Y10, Y6, Y6
	VADDPD  Y11, Y7, Y7

	VMOVUPD (CX)(AX*8), Y8
	VMOVUPD 32(CX)(AX*8), Y9
	VMOVUPD 64(CX)(AX*8), Y10
	VMOVUPD 96(CX)(AX*8), Y11
	VMULPD  Y2, Y8, Y8
	VMULPD  Y2, Y9, Y9
	VMULPD  Y2, Y10, Y10
	VMULPD  Y2, Y11, Y11
	VADDPD  Y8, Y4, Y4
	VADDPD  Y9, Y5, Y5
	VADDPD  Y10, Y6, Y6
	VADDPD  Y11, Y7, Y7

	VMOVUPD (R8)(AX*8), Y8
	VMOVUPD 32(R8)(AX*8), Y9
	VMOVUPD 64(R8)(AX*8), Y10
	VMOVUPD 96(R8)(AX*8), Y11
	VMULPD  Y3, Y8, Y8
	VMULPD  Y3, Y9, Y9
	VMULPD  Y3, Y10, Y10
	VMULPD  Y3, Y11, Y11
	VADDPD  Y8, Y4, Y4
	VADDPD  Y9, Y5, Y5
	VADDPD  Y10, Y6, Y6
	VADDPD  Y11, Y7, Y7

	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	VMOVUPD Y6, 64(DI)(AX*8)
	VMOVUPD Y7, 96(DI)(AX*8)
	ADDQ    $16, AX
	JMP     loop16

tail4:
	CMPQ AX, R9
	JGE  done
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD (SI)(AX*8), Y8
	VMULPD  Y0, Y8, Y8
	VADDPD  Y8, Y4, Y4
	VMOVUPD (DX)(AX*8), Y8
	VMULPD  Y1, Y8, Y8
	VADDPD  Y8, Y4, Y4
	VMOVUPD (CX)(AX*8), Y8
	VMULPD  Y2, Y8, Y8
	VADDPD  Y8, Y4, Y4
	VMOVUPD (R8)(AX*8), Y8
	VMULPD  Y3, Y8, Y8
	VADDPD  Y8, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     tail4

done:
	VZEROUPPER
	RET

// func vaxpy1asm(dst, r []float64, x float64)
TEXT ·vaxpy1asm(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R9
	MOVQ r_base+24(FP), SI
	VBROADCASTSD x+48(FP), Y0
	XORQ AX, AX
	MOVQ R9, BX
	ANDQ $-16, BX

loop16v1:
	CMPQ AX, BX
	JGE  tail4v1
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	VMOVUPD 64(DI)(AX*8), Y6
	VMOVUPD 96(DI)(AX*8), Y7
	VMOVUPD (SI)(AX*8), Y8
	VMOVUPD 32(SI)(AX*8), Y9
	VMOVUPD 64(SI)(AX*8), Y10
	VMOVUPD 96(SI)(AX*8), Y11
	VMULPD  Y0, Y8, Y8
	VMULPD  Y0, Y9, Y9
	VMULPD  Y0, Y10, Y10
	VMULPD  Y0, Y11, Y11
	VADDPD  Y8, Y4, Y4
	VADDPD  Y9, Y5, Y5
	VADDPD  Y10, Y6, Y6
	VADDPD  Y11, Y7, Y7
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	VMOVUPD Y6, 64(DI)(AX*8)
	VMOVUPD Y7, 96(DI)(AX*8)
	ADDQ    $16, AX
	JMP     loop16v1

tail4v1:
	CMPQ AX, R9
	JGE  donev1
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD (SI)(AX*8), Y8
	VMULPD  Y0, Y8, Y8
	VADDPD  Y8, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     tail4v1

donev1:
	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func fusedAdamAsm(val, grad, m, v []float64, b1, omb1, b2, omb2, c1, c2, lr, eps float64)
// len(val) must be a multiple of 4; the Go wrapper peels the tail.
// Per lane, in scalar expression order:
//   m = b1*m + omb1*g
//   v = b2*v + (omb2*g)*g
//   val -= (lr*(m/c1)) / (sqrt(v/c2) + eps)
// Every operation is IEEE correctly rounded, so lanes match the scalar
// path bitwise.
TEXT ·fusedAdamAsm(SB), NOSPLIT, $0-160
	MOVQ val_base+0(FP), DI
	MOVQ val_len+8(FP), R9
	MOVQ grad_base+24(FP), SI
	MOVQ m_base+48(FP), DX
	MOVQ v_base+72(FP), CX
	VBROADCASTSD b1+96(FP), Y0
	VBROADCASTSD omb1+104(FP), Y1
	VBROADCASTSD b2+112(FP), Y2
	VBROADCASTSD omb2+120(FP), Y3
	VBROADCASTSD c1+128(FP), Y4
	VBROADCASTSD c2+136(FP), Y5
	VBROADCASTSD lr+144(FP), Y6
	VBROADCASTSD eps+152(FP), Y7
	XORQ AX, AX

adamloop:
	CMPQ AX, R9
	JGE  adamdone
	VMOVUPD (SI)(AX*8), Y10  // g
	VMOVUPD (DX)(AX*8), Y8   // m
	VMOVUPD (CX)(AX*8), Y9   // v
	// m = b1*m + omb1*g
	VMULPD  Y0, Y8, Y8
	VMULPD  Y1, Y10, Y12
	VADDPD  Y12, Y8, Y8
	VMOVUPD Y8, (DX)(AX*8)
	// v = b2*v + (omb2*g)*g
	VMULPD  Y2, Y9, Y9
	VMULPD  Y3, Y10, Y12
	VMULPD  Y10, Y12, Y12
	VADDPD  Y12, Y9, Y9
	VMOVUPD Y9, (CX)(AX*8)
	// val -= (lr*(m/c1)) / (sqrt(v/c2) + eps)
	VDIVPD  Y4, Y8, Y8       // mHat = m/c1
	VDIVPD  Y5, Y9, Y9       // vHat = v/c2
	VSQRTPD Y9, Y9
	VADDPD  Y7, Y9, Y9
	VMULPD  Y6, Y8, Y8       // lr*mHat
	VDIVPD  Y9, Y8, Y8
	VMOVUPD (DI)(AX*8), Y11
	VSUBPD  Y8, Y11, Y11
	VMOVUPD Y11, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     adamloop

adamdone:
	VZEROUPPER
	RET

// AVX-512 variant of vaxpy1asm: identical per-element semantics with 8-wide
// lanes, same contract (len(dst) multiple of 4). The 512-bit GEMM family
// lives in gemm_avx512_amd64.s.

// func vaxpy1asm512(dst, r []float64, x float64)
TEXT ·vaxpy1asm512(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R9
	MOVQ r_base+24(FP), SI
	VBROADCASTSD x+48(FP), Z0
	XORQ AX, AX
	MOVQ R9, BX
	ANDQ $-32, BX

loop32z1:
	CMPQ AX, BX
	JGE  tail8z1
	VMOVUPD (DI)(AX*8), Z4
	VMOVUPD 64(DI)(AX*8), Z5
	VMOVUPD 128(DI)(AX*8), Z6
	VMOVUPD 192(DI)(AX*8), Z7
	VMOVUPD (SI)(AX*8), Z8
	VMOVUPD 64(SI)(AX*8), Z9
	VMOVUPD 128(SI)(AX*8), Z10
	VMOVUPD 192(SI)(AX*8), Z11
	VMULPD  Z0, Z8, Z8
	VMULPD  Z0, Z9, Z9
	VMULPD  Z0, Z10, Z10
	VMULPD  Z0, Z11, Z11
	VADDPD  Z8, Z4, Z4
	VADDPD  Z9, Z5, Z5
	VADDPD  Z10, Z6, Z6
	VADDPD  Z11, Z7, Z7
	VMOVUPD Z4, (DI)(AX*8)
	VMOVUPD Z5, 64(DI)(AX*8)
	VMOVUPD Z6, 128(DI)(AX*8)
	VMOVUPD Z7, 192(DI)(AX*8)
	ADDQ    $32, AX
	JMP     loop32z1

tail8z1:
	MOVQ R9, BX
	ANDQ $-8, BX

tail8z1loop:
	CMPQ AX, BX
	JGE  tail4z1
	VMOVUPD (DI)(AX*8), Z4
	VMOVUPD (SI)(AX*8), Z8
	VMULPD  Z0, Z8, Z8
	VADDPD  Z8, Z4, Z4
	VMOVUPD Z4, (DI)(AX*8)
	ADDQ    $8, AX
	JMP     tail8z1loop

tail4z1:
	CMPQ AX, R9
	JGE  done512v1
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD (SI)(AX*8), Y8
	VMULPD  Y0, Y8, Y8
	VADDPD  Y8, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     tail4z1

done512v1:
	VZEROUPPER
	RET
