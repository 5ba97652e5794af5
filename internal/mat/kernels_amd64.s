//go:build amd64

#include "textflag.h"

// CPU detection, the packed Adam step and the 8-lane axpy of the AVX-512
// family (the GEMM tile is gemm_avx512_amd64.s, the packed activations
// act_avx512_amd64.s). Lanes map to independent elements and every lane
// operation is one correctly rounded IEEE operation in the scalar loop's
// order, so results are bitwise identical to the Go loops in kernels.go.

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

// func vaxpy1asm512(dst, r []float64, x float64)
// dst[j] += r[j]*x per element (multiply, then add), 8-wide with a 4-wide
// tail. len(dst) must be a multiple of 4 (the Go wrapper peels the scalar
// tail) and len(r) >= len(dst); dst must not alias r.
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
