//go:build amd64

#include "textflag.h"

// AVX-512 register-tiled GEMM: C += A·W for one tile of up to 4 rows and up
// to 32 columns, over the whole k range in one call.
//
// Ordering contract (DESIGN.md §7): lanes are independent output elements;
// every element of C receives its contributions in ascending k, each as a
// correctly rounded multiply followed by a correctly rounded add (no FMA),
// exactly the scalar sequence c[i][j] += w[k][j] * a[i][k]. The scalar
// path's skip-zero rule is kept by merge-masking the add under a per-(row, k)
// mask coef != 0 (unordered compares true, so NaN coefficients are not
// skipped): a masked-off lane is untouched, which is what skipping is — a
// -0.0 accumulator stays -0.0 and 0·Inf never reaches it. Reusing one loaded
// W vector across the tile's rows changes which elements are computed
// together, never the sequence any one element sees.
//
// Column layout of a tile of `cols` columns: chunk 0 holds the odd part
// (((cols-1) & 7) + 1 columns, masked by K5), chunks 1..3 are full 8-lane
// vectors that follow it directly; nc = ceil(cols/8) chunks exist. Keeping
// the partial chunk first means one column mask serves every width, so the
// four row masks and it fit the seven usable mask registers.
//
// Register map:
//   Z0-Z15  accumulators, row r chunk c in Z(4r+c)
//   Z16-Z19 broadcast coefficients of rows 0-3, K1-K4 their != 0 masks
//   Z20     current W chunk, Z21-Z24 products, Z31 zero
//   SI DX CX BX  coefficient pointers of rows 0-3, R9 their k stride (bytes)
//   R10 W pointer, R11 its row stride (bytes), R13 byte width of chunk 0
//   R12 k countdown, AX nc, DI C pointer; SI DX CX BX double as the C row
//   pointers outside the k loop

// ROWCOEF broadcasts a row's next coefficient and derives its add mask.
#define ROWCOEF(A, ZC, KR) \
	VBROADCASTSD (A), ZC; \
	ADDQ R9, A; \
	VCMPPD $4, Z31, ZC, KR

// MACn: multiply the loaded W chunk (Z20, first operand as in the scalar
// w*a) by each row's coefficient, then add into that row's accumulator
// under the row mask (accumulator first, as in the scalar s += p).
#define MAC1(a0) \
	VMULPD Z16, Z20, Z21; \
	VADDPD Z21, a0, K1, a0

#define MAC2(a0, a1) \
	VMULPD Z16, Z20, Z21; \
	VMULPD Z17, Z20, Z22; \
	VADDPD Z21, a0, K1, a0; \
	VADDPD Z22, a1, K2, a1

#define MAC3(a0, a1, a2) \
	VMULPD Z16, Z20, Z21; \
	VMULPD Z17, Z20, Z22; \
	VMULPD Z18, Z20, Z23; \
	VADDPD Z21, a0, K1, a0; \
	VADDPD Z22, a1, K2, a1; \
	VADDPD Z23, a2, K3, a2

#define MAC4(a0, a1, a2, a3) \
	VMULPD Z16, Z20, Z21; \
	VMULPD Z17, Z20, Z22; \
	VMULPD Z18, Z20, Z23; \
	VMULPD Z19, Z20, Z24; \
	VADDPD Z21, a0, K1, a0; \
	VADDPD Z22, a1, K2, a1; \
	VADDPD Z23, a2, K3, a2; \
	VADDPD Z24, a3, K4, a3

// LD0/ST0 move chunk 0 of a C or W row (masked, at the row start P), LD/ST
// one of its full chunks 1-3 (displacement D = 0, 64, 128 past chunk 0).
#define LD0(P, acc) VMOVUPD.Z (P), K5, acc
#define LD(P, D, acc) VMOVUPD D(P)(R13*1), acc
#define ST0(P, acc) VMOVUPD acc, K5, (P)
#define ST(P, D, acc) VMOVUPD acc, D(P)(R13*1)

// CHUNKS runs C0..C3, the per-chunk work, for the nc chunks that exist. The
// branches depend only on nc, so they predict perfectly; chunks that do not
// exist are never touched (a zero-mask store would still sit in the store
// buffer and stall the next tile's loads of the rows it aliases).
#define CHUNKS(DONE, C0, C1, C2, C3) \
	C0; \
	CMPQ AX, $2; \
	JL DONE; \
	C1; \
	CMPQ AX, $3; \
	JL DONE; \
	C2; \
	CMPQ AX, $4; \
	JL DONE; \
	C3; \
DONE:

// KLOOP is the k loop of one row count: COEFS broadcasts the rows'
// coefficients and derives their masks, M0-M3 are the MACn invocations of
// chunks 0-3.
#define KLOOP(LOOP, NEXT, COEFS, M0, M1, M2, M3) \
LOOP: \
	COEFS; \
	CHUNKS(NEXT, LD0(R10, Z20); M0, LD(R10, 0, Z20); M1, LD(R10, 64, Z20); M2, LD(R10, 128, Z20); M3) \
	ADDQ R11, R10; \
	DECQ R12; \
	JNZ LOOP

// ZEROACC clears the sixteen accumulators.
#define ZEROACC \
	VPXORQ Z0, Z0, Z0; VPXORQ Z1, Z1, Z1; VPXORQ Z2, Z2, Z2; VPXORQ Z3, Z3, Z3; \
	VPXORQ Z4, Z4, Z4; VPXORQ Z5, Z5, Z5; VPXORQ Z6, Z6, Z6; VPXORQ Z7, Z7, Z7; \
	VPXORQ Z8, Z8, Z8; VPXORQ Z9, Z9, Z9; VPXORQ Z10, Z10, Z10; VPXORQ Z11, Z11, Z11; \
	VPXORQ Z12, Z12, Z12; VPXORQ Z13, Z13, Z13; VPXORQ Z14, Z14, Z14; VPXORQ Z15, Z15, Z15

// CROWS points SI, DX, CX, BX at the tile's C rows (those that exist are the
// only ones dereferenced); the same registers hold the coefficient pointers
// inside the k loop, so the rows are re-derived before the stores.
#define CROWS \
	MOVQ ldc+8(FP), BX; \
	SHLQ $3, BX; \
	MOVQ DI, SI; \
	LEAQ (DI)(BX*1), DX; \
	LEAQ (DX)(BX*1), CX; \
	LEAQ (CX)(BX*1), BX

// AROWS points SI, DX, CX, BX at the coefficient rows and loads k into R12.
#define AROWS \
	MOVQ a+16(FP), SI; \
	MOVQ rs+24(FP), R12; \
	SHLQ $3, R12; \
	LEAQ (SI)(R12*1), DX; \
	LEAQ (DX)(R12*1), CX; \
	LEAQ (CX)(R12*1), BX; \
	MOVQ k+56(FP), R12

// func gemmTile512(c *float64, ldc int, a *float64, rs, ks int, w *float64, ldw, k, cols, rows int, overwrite bool)
// Requires 1 <= rows <= 4, 1 <= cols <= 32, k >= 1; strides in elements. With
// overwrite the accumulators start from +0.0 instead of C (C = A·W: what
// clearing C first and accumulating would store, without the clear and the
// loads).
TEXT ·gemmTile512(SB), NOSPLIT, $0-81
	MOVQ cols+64(FP), AX
	LEAQ -1(AX), CX
	ANDQ $7, CX
	INCQ CX                  // columns in chunk 0
	MOVQ $1, R13
	SHLQ CX, R13
	DECQ R13
	KMOVW R13, K5
	LEAQ (CX*8), R13         // byte width of chunk 0
	ADDQ $7, AX
	SHRQ $3, AX              // nc

	MOVQ c+0(FP), DI
	MOVQ ks+32(FP), R9
	SHLQ $3, R9
	MOVQ w+40(FP), R10
	MOVQ ldw+48(FP), R11
	SHLQ $3, R11
	VPXORQ Z31, Z31, Z31
	ZEROACC

	CROWS
	MOVQ rows+72(FP), R12
	CMPQ R12, $4
	JE   rows4
	CMPQ R12, $3
	JE   rows3
	CMPQ R12, $2
	JE   rows2

	CMPB overwrite+80(FP), $0
	JNE  ld1
	CHUNKS(ld1, LD0(SI, Z0), LD(SI, 0, Z1), LD(SI, 64, Z2), LD(SI, 128, Z3))
	AROWS
	KLOOP(k1loop, k1next, ROWCOEF(SI, Z16, K1), MAC1(Z0), MAC1(Z1), MAC1(Z2), MAC1(Z3))
	CHUNKS(st1, ST0(DI, Z0), ST(DI, 0, Z1), ST(DI, 64, Z2), ST(DI, 128, Z3))
	VZEROUPPER
	RET

rows2:
	CMPB overwrite+80(FP), $0
	JNE  ld2
	CHUNKS(ld2, LD0(SI, Z0); LD0(DX, Z4), LD(SI, 0, Z1); LD(DX, 0, Z5), LD(SI, 64, Z2); LD(DX, 64, Z6), LD(SI, 128, Z3); LD(DX, 128, Z7))
	AROWS
	KLOOP(k2loop, k2next, ROWCOEF(SI, Z16, K1); ROWCOEF(DX, Z17, K2), MAC2(Z0, Z4), MAC2(Z1, Z5), MAC2(Z2, Z6), MAC2(Z3, Z7))
	CROWS
	CHUNKS(st2, ST0(SI, Z0); ST0(DX, Z4), ST(SI, 0, Z1); ST(DX, 0, Z5), ST(SI, 64, Z2); ST(DX, 64, Z6), ST(SI, 128, Z3); ST(DX, 128, Z7))
	VZEROUPPER
	RET

rows3:
	CMPB overwrite+80(FP), $0
	JNE  ld3
	CHUNKS(ld3, LD0(SI, Z0); LD0(DX, Z4); LD0(CX, Z8), LD(SI, 0, Z1); LD(DX, 0, Z5); LD(CX, 0, Z9), LD(SI, 64, Z2); LD(DX, 64, Z6); LD(CX, 64, Z10), LD(SI, 128, Z3); LD(DX, 128, Z7); LD(CX, 128, Z11))
	AROWS
	KLOOP(k3loop, k3next, ROWCOEF(SI, Z16, K1); ROWCOEF(DX, Z17, K2); ROWCOEF(CX, Z18, K3), MAC3(Z0, Z4, Z8), MAC3(Z1, Z5, Z9), MAC3(Z2, Z6, Z10), MAC3(Z3, Z7, Z11))
	CROWS
	CHUNKS(st3, ST0(SI, Z0); ST0(DX, Z4); ST0(CX, Z8), ST(SI, 0, Z1); ST(DX, 0, Z5); ST(CX, 0, Z9), ST(SI, 64, Z2); ST(DX, 64, Z6); ST(CX, 64, Z10), ST(SI, 128, Z3); ST(DX, 128, Z7); ST(CX, 128, Z11))
	VZEROUPPER
	RET

rows4:
	CMPB overwrite+80(FP), $0
	JNE  ld4
	CHUNKS(ld4, LD0(SI, Z0); LD0(DX, Z4); LD0(CX, Z8); LD0(BX, Z12), LD(SI, 0, Z1); LD(DX, 0, Z5); LD(CX, 0, Z9); LD(BX, 0, Z13), LD(SI, 64, Z2); LD(DX, 64, Z6); LD(CX, 64, Z10); LD(BX, 64, Z14), LD(SI, 128, Z3); LD(DX, 128, Z7); LD(CX, 128, Z11); LD(BX, 128, Z15))
	AROWS
	KLOOP(k4loop, k4next, ROWCOEF(SI, Z16, K1); ROWCOEF(DX, Z17, K2); ROWCOEF(CX, Z18, K3); ROWCOEF(BX, Z19, K4), MAC4(Z0, Z4, Z8, Z12), MAC4(Z1, Z5, Z9, Z13), MAC4(Z2, Z6, Z10, Z14), MAC4(Z3, Z7, Z11, Z15))
	CROWS
	CHUNKS(st4, ST0(SI, Z0); ST0(DX, Z4); ST0(CX, Z8); ST0(BX, Z12), ST(SI, 0, Z1); ST(DX, 0, Z5); ST(CX, 0, Z9); ST(BX, 0, Z13), ST(SI, 64, Z2); ST(DX, 64, Z6); ST(CX, 64, Z10); ST(BX, 64, Z14), ST(SI, 128, Z3); ST(DX, 128, Z7); ST(CX, 128, Z11); ST(BX, 128, Z15))
	VZEROUPPER
	RET
