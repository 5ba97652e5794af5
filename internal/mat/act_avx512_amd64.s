//go:build amd64

#include "textflag.h"

// Packed activations: ELU, sigmoid and tanh, eight lanes at a time, bit for
// bit what the scalar loops of kernels.go compute on a host where math.Exp
// takes its FMA path. All three are built on one exp, the EXP8 macro below:
// $GOROOT/src/math/exp_amd64.s's avxfma sequence (Shibata's SLEEF reduction:
// k = round(x·log2e), two FNMADDs against the split ln2, ×1/16, a degree-8
// Horner chain of seven FMADDs, four squarings of 1+p, scale by 2^k) with
// every scalar instruction replaced by its packed form — same operations,
// same order, same rounding, per lane. The constants are the same decimal
// literals, so the assembler rounds them to the same doubles.
//
// What the packed form does not carry over are archExp's branches (not
// finite, overflow, denormal, underflow). None is taken for |x| <= 700: then
// |k| <= 1010, the biased exponent 0x3FF + k lies in [13, 2033] and the
// result is a normal number. Each kernel keeps the argument of EXP8 inside
// that range in its own way: ELU clamps (the lanes a clamp changes do not
// depend on what exp returned), sigmoid and tanh stop at the first 8-lane
// group that holds a lane with |x| > 700 or a NaN and report how far they
// got; the Go wrapper runs the scalar loop over that group and calls again.

#define LOG2E 1.4426950408889634073599246810018920
#define LN2U 0.69314718055966295651160180568695068359375
#define LN2L 0.28235290563031577122588448175013436025525412068e-12

DATA actconst<>+0(SB)/8, $-700.0
DATA actconst<>+8(SB)/8, $LOG2E
DATA actconst<>+16(SB)/8, $LN2U
DATA actconst<>+24(SB)/8, $LN2L
DATA actconst<>+32(SB)/8, $0.0625
DATA actconst<>+40(SB)/8, $2.4801587301587301587e-5
DATA actconst<>+48(SB)/8, $1.9841269841269841270e-4
DATA actconst<>+56(SB)/8, $1.3888888888888888889e-3
DATA actconst<>+64(SB)/8, $8.3333333333333333333e-3
DATA actconst<>+72(SB)/8, $4.1666666666666666667e-2
DATA actconst<>+80(SB)/8, $1.6666666666666666667e-1
DATA actconst<>+88(SB)/8, $0.5
DATA actconst<>+96(SB)/8, $1.0
DATA actconst<>+104(SB)/8, $2.0
DATA actconst<>+112(SB)/8, $0x3FF
DATA actconst<>+120(SB)/8, $700.0
DATA actconst<>+128(SB)/8, $0x7FFFFFFFFFFFFFFF
// math.tanh's branch points (0.625 and 0.5·MAXLOG) and its P and Q
// coefficients, the literals of $GOROOT/src/math/tanh.go.
DATA actconst<>+136(SB)/8, $0.625
DATA actconst<>+144(SB)/8, $44.014845965556527147994
DATA actconst<>+152(SB)/8, $-9.64399179425052238628e-1
DATA actconst<>+160(SB)/8, $-9.92877231001918586564e1
DATA actconst<>+168(SB)/8, $-1.61468768441708447952e3
DATA actconst<>+176(SB)/8, $1.12811678491632931402e2
DATA actconst<>+184(SB)/8, $2.23548839060100448583e3
DATA actconst<>+192(SB)/8, $4.84406305325125486048e3
DATA actconst<>+200(SB)/8, $0x8000000000000000
GLOBL actconst<>+0(SB), RODATA, $208

// EXPCONSTS loads what EXP8 reads: Z30 log2e, Z29/Z28 the split ln2, Z27
// 1/16, Z26-Z21 the Taylor coefficients from the highest degree down, Z20
// 0.5, Z19 1.0, Z18 2.0 and Z15 the exponent bias as integers.
#define EXPCONSTS \
	VBROADCASTSD actconst<>+8(SB), Z30; \
	VBROADCASTSD actconst<>+16(SB), Z29; \
	VBROADCASTSD actconst<>+24(SB), Z28; \
	VBROADCASTSD actconst<>+32(SB), Z27; \
	VBROADCASTSD actconst<>+40(SB), Z26; \
	VBROADCASTSD actconst<>+48(SB), Z25; \
	VBROADCASTSD actconst<>+56(SB), Z24; \
	VBROADCASTSD actconst<>+64(SB), Z23; \
	VBROADCASTSD actconst<>+72(SB), Z22; \
	VBROADCASTSD actconst<>+80(SB), Z21; \
	VBROADCASTSD actconst<>+88(SB), Z20; \
	VBROADCASTSD actconst<>+96(SB), Z19; \
	VBROADCASTSD actconst<>+104(SB), Z18; \
	VPBROADCASTQ actconst<>+112(SB), Z15

// EXP8 replaces Z1 by exp(Z1), lane for lane math.Exp's FMA path; every lane
// must hold |x| <= 700. Clobbers Z2 and Z3.
#define EXP8 \
	VMULPD  Z1, Z30, Z2; \
	VCVTPD2DQ Z2, Y3; \
	VCVTDQ2PD Y3, Z2; \
	VFNMADD231PD Z29, Z2, Z1; \
	VFNMADD231PD Z28, Z2, Z1; \
	VMULPD  Z27, Z1, Z1; \
	VMOVAPD Z26, Z2; \
	VFMADD213PD Z25, Z1, Z2; \
	VFMADD213PD Z24, Z1, Z2; \
	VFMADD213PD Z23, Z1, Z2; \
	VFMADD213PD Z22, Z1, Z2; \
	VFMADD213PD Z21, Z1, Z2; \
	VFMADD213PD Z20, Z1, Z2; \
	VFMADD213PD Z19, Z1, Z2; \
	VMULPD  Z2, Z1, Z1; \
	VADDPD  Z18, Z1, Z2; \
	VMULPD  Z2, Z1, Z1; \
	VADDPD  Z18, Z1, Z2; \
	VMULPD  Z2, Z1, Z1; \
	VADDPD  Z18, Z1, Z2; \
	VMULPD  Z2, Z1, Z1; \
	VADDPD  Z18, Z1, Z2; \
	VFMADD213PD Z19, Z2, Z1; \
	VPMOVSXDQ Y3, Z3; \
	VPADDQ  Z15, Z3, Z3; \
	VPSLLQ  $52, Z3, Z3; \
	VMULPD  Z3, Z1, Z1

// TAILMASK sets K7 to the low R9 lanes when fewer than eight elements remain
// (K7 enters the loop as all eight).
#define TAILMASK(BODY) \
	CMPQ R9, $8; \
	JGE  BODY; \
	MOVQ R9, CX; \
	MOVQ $1, AX; \
	SHLQ CX, AX; \
	DECQ AX; \
	KMOVW AX, K7

// func eluAsm512(dst, src *float64, n int, alpha float64)
// dst[i] = x >= 0 ? x : alpha*(exp(x) - 1). dst and src may be the same
// array. n >= 1.
//
// Only x < 0 lanes keep the exp, and the argument is clamped to [-700, 0]
// first: for every x <= -37.43 exp(x) < 2^-54, so exp(x) - 1 rounds to
// exactly -1 whatever exp returned — clamped or not, -Inf included. x >= 0
// lanes (ordered compare, so +0, -0 and +Inf pass through and NaN does not)
// are blended back from the input; NaN lanes take alpha*(x - 1), which is
// what the scalar expression yields because math.Exp returns a NaN argument
// as is.
TEXT ·eluAsm512(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), R9
	VBROADCASTSD alpha+24(FP), Z17
	VBROADCASTSD actconst<>+0(SB), Z31
	EXPCONSTS
	VPXORQ Z16, Z16, Z16
	MOVQ $0xFF, AX
	KMOVW AX, K7

eluloop:
	TAILMASK(elubody)

elubody:
	VMOVUPD.Z (SI), K7, Z0
	VCMPPD  $0x1D, Z16, Z0, K1     // x >= 0 (ordered)
	VCMPPD  $3, Z0, Z0, K2         // NaN
	VMAXPD  Z31, Z0, Z1            // max(x, -700); a NaN x yields -700
	VMINPD  Z16, Z1, Z1            // min(.., 0): lanes that are blended away stay tame
	EXP8
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
	TAILMASK(gradbody)

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

// INRANGE leaves in K1 the lanes of Z0 outside EXP8's range — |x| > 700 or
// NaN (NLE, unordered true) — with |x| in Z4, and jumps to DONE if there is
// one. The zeros a tail mask loads are in range.
#define INRANGE(DONE) \
	VPANDQ  Z14, Z0, Z4; \
	VCMPPD  $0x16, Z31, Z4, K1; \
	KORTESTW K1, K1; \
	JNZ     DONE

// func sigmoidAsm512(dst, src *float64, n int) (done int)
// dst[i] = 1 / (1 + exp(-x)), the scalar expression's negate, exp, add and
// divide, one rounding each. Stops before the first 8-lane group holding a
// lane outside [-700, 700] and returns the number of elements written (n if
// none). dst and src may be the same array. n >= 1.
TEXT ·sigmoidAsm512(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), R9
	MOVQ R9, R10
	VBROADCASTSD actconst<>+120(SB), Z31
	VPBROADCASTQ actconst<>+128(SB), Z14
	VPBROADCASTQ actconst<>+200(SB), Z11
	EXPCONSTS
	MOVQ $0xFF, AX
	KMOVW AX, K7

sigloop:
	TAILMASK(sigbody)

sigbody:
	VMOVUPD.Z (SI), K7, Z0
	INRANGE(sigdone)
	VPXORQ  Z11, Z0, Z1            // -x
	EXP8
	VADDPD  Z1, Z19, Z1            // 1 + exp(-x)
	VDIVPD  Z1, Z19, Z1            // 1 / (1 + exp(-x))
	VMOVUPD Z1, K7, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, R9
	JG   sigloop
	XORQ R9, R9

sigdone:
	SUBQ R9, R10                   // n less what the refused group left
	MOVQ R10, done+24(FP)
	VZEROUPPER
	RET

// func tanhAsm512(dst, src *float64, n int) (done int)
// dst[i] = math.tanh(x): its branches are evaluated for every lane, each in
// the scalar code's operation order (no FMA outside EXP8, as the compiler
// emits none), and blended by its conditions on z = |x|:
//   z > 0.5·MAXLOG  ->  ±1 by the sign of x
//   z >= 0.625      ->  1 - 2/(exp(2z) + 1), sign of x restored
//   x == 0          ->  x (keeps -0)
//   else            ->  x + x·s·((P0·s + P1)·s + P2) / (((s + Q0)·s + Q1)·s + Q2), s = x·x
// Each of the two middle branches ends in one division and one add or
// subtract; numerator and denominator are blended first, so a group costs one
// VDIVPD and every lane still divides its own branch's operands. exp(2z) is
// only kept for z <= 0.5·MAXLOG; min(2z, 700) keeps the lanes that drop it in
// EXP8's range. Stops and returns like sigmoidAsm512.
TEXT ·tanhAsm512(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), R9
	MOVQ R9, R10
	VBROADCASTSD actconst<>+120(SB), Z31
	VPBROADCASTQ actconst<>+128(SB), Z14
	VBROADCASTSD actconst<>+136(SB), Z13
	VBROADCASTSD actconst<>+144(SB), Z12
	VPBROADCASTQ actconst<>+200(SB), Z11
	EXPCONSTS
	VPXORQ Z16, Z16, Z16
	MOVQ $0xFF, AX
	KMOVW AX, K7

tanhloop:
	TAILMASK(tanhbody)

tanhbody:
	VMOVUPD.Z (SI), K7, Z0
	INRANGE(tanhdone)
	VCMPPD  $0x1E, Z12, Z4, K1     // z > 0.5·MAXLOG
	VCMPPD  $0x1D, Z13, Z4, K2     // z >= 0.625
	VCMPPD  $0, Z16, Z0, K3        // x == 0
	VPANDQ  Z11, Z0, Z9            // the sign bit of x

	VMULPD  Z18, Z4, Z1            // 2z
	VMINPD  Z31, Z1, Z1
	EXP8
	VADDPD  Z19, Z1, Z1            // s + 1

	VMULPD  Z0, Z0, Z5             // s = x·x
	VMULPD.BCST actconst<>+152(SB), Z5, Z6
	VADDPD.BCST actconst<>+160(SB), Z6, Z6
	VMULPD  Z5, Z6, Z6
	VADDPD.BCST actconst<>+168(SB), Z6, Z6 // (P0·s + P1)·s + P2
	VADDPD.BCST actconst<>+176(SB), Z5, Z7
	VMULPD  Z5, Z7, Z7
	VADDPD.BCST actconst<>+184(SB), Z7, Z7
	VMULPD  Z5, Z7, Z7
	VADDPD.BCST actconst<>+192(SB), Z7, Z7 // ((s + Q0)·s + Q1)·s + Q2
	VMULPD  Z5, Z0, Z8             // x·s
	VMULPD  Z6, Z8, Z8             // x·s·P(s)

	VMOVAPD Z18, K2, Z8            // z >= 0.625 lanes: 2 ...
	VMOVAPD Z1, K2, Z7             // ... over s + 1
	VDIVPD  Z7, Z8, Z8
	VSUBPD  Z8, Z19, Z1            // 1 - 2/(s + 1), positive
	VPORQ   Z9, Z1, Z1             // negated where x < 0
	VADDPD  Z8, Z0, Z8             // x + x·s·P(s)/Q(s)

	VMOVAPD Z0, K3, Z8
	VMOVAPD Z1, K2, Z8
	VPORQ   Z9, Z19, K1, Z8        // ±1
	VMOVUPD Z8, K7, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, R9
	JG   tanhloop
	XORQ R9, R9

tanhdone:
	SUBQ R9, R10
	MOVQ R10, done+24(FP)
	VZEROUPPER
	RET
