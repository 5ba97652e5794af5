//go:build amd64

#include "textflag.h"

// Packed ELU: dst[i] = x >= 0 ? x : alpha*(exp(x) - 1), eight lanes at a time,
// bit for bit what the scalar loop computes on a host where math.Exp takes
// its FMA path. The exp below is $GOROOT/src/math/exp_amd64.s's avxfma
// sequence (Shibata's SLEEF reduction: k = round(x·log2e), two FNMADDs
// against the split ln2, ×1/16, a degree-8 Horner chain of seven FMADDs,
// four squarings of 1+p, scale by 2^k) with every scalar instruction replaced
// by its packed form — same operations, same order, same rounding, per lane.
// The constants are the same decimal literals, so the assembler rounds them
// to the same doubles.
//
// What the packed form does not carry over are archExp's branches; none is
// needed. Only x < 0 lanes keep the result, and the argument is clamped to
// [-700, 0] first: exp(-700) ~ 1e-304 is still normal (biased exponent
// 0x3FF + k >= 13, so the denormal and underflow exits never trigger), and
// for every x <= -37.43 exp(x) < 2^-54, so exp(x) - 1 rounds to exactly -1
// whatever exp returned — clamped or not, -Inf included. x >= 0 lanes
// (ordered compare, so +0, -0 and +Inf pass through and NaN does not) are
// blended back from the input; NaN lanes take alpha*(x - 1), which is what
// the scalar expression yields because math.Exp returns a NaN argument as is.

#define LOG2E 1.4426950408889634073599246810018920
#define LN2U 0.69314718055966295651160180568695068359375
#define LN2L 0.28235290563031577122588448175013436025525412068e-12

DATA eluconst<>+0(SB)/8, $-700.0
DATA eluconst<>+8(SB)/8, $LOG2E
DATA eluconst<>+16(SB)/8, $LN2U
DATA eluconst<>+24(SB)/8, $LN2L
DATA eluconst<>+32(SB)/8, $0.0625
DATA eluconst<>+40(SB)/8, $2.4801587301587301587e-5
DATA eluconst<>+48(SB)/8, $1.9841269841269841270e-4
DATA eluconst<>+56(SB)/8, $1.3888888888888888889e-3
DATA eluconst<>+64(SB)/8, $8.3333333333333333333e-3
DATA eluconst<>+72(SB)/8, $4.1666666666666666667e-2
DATA eluconst<>+80(SB)/8, $1.6666666666666666667e-1
DATA eluconst<>+88(SB)/8, $0.5
DATA eluconst<>+96(SB)/8, $1.0
DATA eluconst<>+104(SB)/8, $2.0
DATA eluconst<>+112(SB)/8, $0x3FF
GLOBL eluconst<>+0(SB), RODATA, $120

// func eluAsm512(dst, src *float64, n int, alpha float64)
// dst and src may be the same array. n >= 1.
TEXT ·eluAsm512(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), R9
	VBROADCASTSD alpha+24(FP), Z17
	VBROADCASTSD eluconst<>+0(SB), Z31
	VBROADCASTSD eluconst<>+8(SB), Z30
	VBROADCASTSD eluconst<>+16(SB), Z29
	VBROADCASTSD eluconst<>+24(SB), Z28
	VBROADCASTSD eluconst<>+32(SB), Z27
	VBROADCASTSD eluconst<>+40(SB), Z26
	VBROADCASTSD eluconst<>+48(SB), Z25
	VBROADCASTSD eluconst<>+56(SB), Z24
	VBROADCASTSD eluconst<>+64(SB), Z23
	VBROADCASTSD eluconst<>+72(SB), Z22
	VBROADCASTSD eluconst<>+80(SB), Z21
	VBROADCASTSD eluconst<>+88(SB), Z20
	VBROADCASTSD eluconst<>+96(SB), Z19
	VBROADCASTSD eluconst<>+104(SB), Z18
	VPBROADCASTQ eluconst<>+112(SB), Z15
	VPXORQ Z16, Z16, Z16
	MOVQ $0xFF, AX
	KMOVW AX, K7

eluloop:
	CMPQ R9, $8
	JGE  elubody
	// Final partial vector: K7 = low n lanes.
	MOVQ R9, CX
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K7

elubody:
	VMOVUPD.Z (SI), K7, Z0
	VCMPPD  $0x1D, Z16, Z0, K1     // x >= 0 (ordered)
	VCMPPD  $3, Z0, Z0, K2         // NaN
	VMAXPD  Z31, Z0, Z1            // max(x, -700); a NaN x yields -700
	VMINPD  Z16, Z1, Z1            // min(.., 0): lanes that are blended away stay tame
	VMULPD  Z1, Z30, Z2            // x * LOG2E
	VCVTPD2DQ Z2, Y3               // k, rounded per MXCSR like CVTSD2SL
	VCVTDQ2PD Y3, Z2
	VFNMADD231PD Z29, Z2, Z1       // x -= k*LN2U
	VFNMADD231PD Z28, Z2, Z1       // x -= k*LN2L
	VMULPD  Z27, Z1, Z1            // x *= 1/16
	VMOVAPD Z26, Z2
	VFMADD213PD Z25, Z1, Z2
	VFMADD213PD Z24, Z1, Z2
	VFMADD213PD Z23, Z1, Z2
	VFMADD213PD Z22, Z1, Z2
	VFMADD213PD Z21, Z1, Z2
	VFMADD213PD Z20, Z1, Z2
	VFMADD213PD Z19, Z1, Z2
	VMULPD  Z2, Z1, Z1
	VADDPD  Z18, Z1, Z2
	VMULPD  Z2, Z1, Z1
	VADDPD  Z18, Z1, Z2
	VMULPD  Z2, Z1, Z1
	VADDPD  Z18, Z1, Z2
	VMULPD  Z2, Z1, Z1
	VADDPD  Z18, Z1, Z2
	VFMADD213PD Z19, Z2, Z1        // fr = x*(x+2) + 1
	VPMOVSXDQ Y3, Z3
	VPADDQ  Z15, Z3, Z3
	VPSLLQ  $52, Z3, Z3            // 2^k
	VMULPD  Z3, Z1, Z1             // exp(x)
	VSUBPD  Z19, Z1, Z1            // exp(x) - 1
	VMULPD  Z1, Z17, Z1            // alpha * (exp(x) - 1)
	VSUBPD  Z19, Z0, Z4
	VMULPD  Z4, Z17, K2, Z1        // NaN lanes: alpha * (x - 1)
	VMOVAPD Z0, K1, Z1             // x >= 0 lanes: x
	VMOVUPD Z1, K7, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, R9
	JG   eluloop
	VZEROUPPER
	RET

// func eluGradAsm512(dst, dy, pre, y *float64, n int, alpha float64)
// dst[i] = pre[i] >= 0 ? dy[i] : dy[i]*(y[i] + alpha) — the ELU backward
// factor, the scalar loop's two rounded operations per lane (ordered compare:
// a NaN pre-activation takes the product branch, as it does there). n >= 1.
TEXT ·eluGradAsm512(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ dy+8(FP), SI
	MOVQ pre+16(FP), DX
	MOVQ y+24(FP), R8
	MOVQ n+32(FP), R9
	VBROADCASTSD alpha+40(FP), Z17
	VPXORQ Z16, Z16, Z16
	MOVQ $0xFF, AX
	KMOVW AX, K7

gradloop:
	CMPQ R9, $8
	JGE  gradbody
	MOVQ R9, CX
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K7

gradbody:
	VMOVUPD.Z (SI), K7, Z0
	VMOVUPD.Z (DX), K7, Z1
	VMOVUPD.Z (R8), K7, Z2
	VCMPPD  $0x1D, Z16, Z1, K1     // pre >= 0 (ordered)
	VADDPD  Z17, Z2, Z2            // y + alpha
	VMULPD  Z2, Z0, Z2             // dy * (y + alpha)
	VMOVAPD Z0, K1, Z2             // pre >= 0 lanes: dy
	VMOVUPD Z2, K7, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, R8
	ADDQ $64, DI
	SUBQ $8, R9
	JG   gradloop
	VZEROUPPER
	RET
