/**
 * @file
 * Lane-batched LU substitution kernel (double field).
 *
 * Every real-valued LU solve in the model runs here: the transient
 * solver back-substitutes all K SoA right-hand sides of a step through
 * one shared factorization, and a single solve is the K = 1 case.
 * Lanes are processed in chunks whose trip count is a compile-time
 * constant, so the per-row running sums live in vector registers for
 * the whole substitution loop instead of bouncing through a
 * store-to-load forward on every j iteration.
 *
 * Lane-invariance contract: every lane performs the same operation
 * sequence — same j order, no zero skips, one multiply and one
 * subtract per (i, j), one divide per row. Chunking groups lanes; it
 * never reorders or reassociates a lane's arithmetic, so a lane's
 * result does not depend on the batch width or its position in the
 * batch. On x86-64 an AVX2 clone is dispatched at runtime; AVX2
 * vmulpd / vsubpd / vdivpd are elementwise IEEE-identical to their
 * scalar counterparts, and FMA contraction is impossible because the
 * fma ISA bit is never enabled for either clone.
 */

#include <cstddef>

namespace vn::detail
{

namespace
{

/**
 * Substitute one chunk of KN lanes starting at lane offset k0. KN is a
 * compile-time constant so `acc` is fully scalarized into registers.
 */
template <size_t KN>
[[gnu::always_inline]] inline void
solveChunk(const double *lu, const size_t *perm, size_t n,
           const double *b, size_t lanes, size_t k0, double *x)
{
    double acc[KN];
    // Apply permutation and forward-substitute L (unit diagonal).
    for (size_t i = 0; i < n; ++i) {
        const double *bp = b + perm[i] * lanes + k0;
        for (size_t k = 0; k < KN; ++k)
            acc[k] = bp[k];
        const double *row = lu + i * n;
        for (size_t j = 0; j < i; ++j) {
            const double factor = row[j];
            const double *xj = x + j * lanes + k0;
            for (size_t k = 0; k < KN; ++k)
                acc[k] -= factor * xj[k];
        }
        double *xi = x + i * lanes + k0;
        for (size_t k = 0; k < KN; ++k)
            xi[k] = acc[k];
    }
    // Back-substitute U.
    for (size_t ii = n; ii-- > 0;) {
        double *xi = x + ii * lanes + k0;
        for (size_t k = 0; k < KN; ++k)
            acc[k] = xi[k];
        const double *row = lu + ii * n;
        for (size_t j = ii + 1; j < n; ++j) {
            const double factor = row[j];
            const double *xj = x + j * lanes + k0;
            for (size_t k = 0; k < KN; ++k)
                acc[k] -= factor * xj[k];
        }
        const double diag = row[ii];
        for (size_t k = 0; k < KN; ++k)
            xi[k] = acc[k] / diag;
    }
}

/** Full-width chunks of 8 lanes, then one constant-width remainder. */
[[gnu::always_inline]] inline void
solveAll(const double *lu, const size_t *perm, size_t n, const double *b,
         size_t lanes, double *x)
{
    size_t k0 = 0;
    for (; k0 + 8 <= lanes; k0 += 8)
        solveChunk<8>(lu, perm, n, b, lanes, k0, x);
    switch (lanes - k0) {
    case 1: solveChunk<1>(lu, perm, n, b, lanes, k0, x); break;
    case 2: solveChunk<2>(lu, perm, n, b, lanes, k0, x); break;
    case 3: solveChunk<3>(lu, perm, n, b, lanes, k0, x); break;
    case 4: solveChunk<4>(lu, perm, n, b, lanes, k0, x); break;
    case 5: solveChunk<5>(lu, perm, n, b, lanes, k0, x); break;
    case 6: solveChunk<6>(lu, perm, n, b, lanes, k0, x); break;
    case 7: solveChunk<7>(lu, perm, n, b, lanes, k0, x); break;
    default: break;
    }
}

/**
 * One lane, the case TransientSolver, ChipModel::run and
 * LuSolver::solve take: solveChunk<1> with the lane stride fixed at 1,
 * compiled in a body of its own so its loop-invariant pointers stay in
 * registers instead of sharing the register budget of every chunk
 * width. Its arithmetic is scalar either way, so it needs no AVX2
 * clone.
 */
[[gnu::noinline]] void
solveOneLane(const double *lu, const size_t *perm, size_t n,
             const double *b, double *x)
{
    solveChunk<1>(lu, perm, n, b, 1, 0, x);
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VN_LANES_AVX2 1

/**
 * AVX2 clone (note: avx2 only — never fma, which would contract the
 * multiply-subtract pairs and change results relative to the other
 * bodies). The always_inline helpers are compiled into this body
 * under the avx2 target, so the constant-trip lane loops vectorize
 * 4-wide.
 */
__attribute__((target("avx2"))) void
solveAllAvx2(const double *lu, const size_t *perm, size_t n,
             const double *b, size_t lanes, double *x)
{
    solveAll(lu, perm, n, b, lanes, x);
}
#endif

} // namespace

void
solveLanesDouble(const double *lu, const size_t *perm, size_t n,
                 const double *b, size_t lanes, double *x)
{
    if (lanes == 1) {
        solveOneLane(lu, perm, n, b, x);
        return;
    }
#ifdef VN_LANES_AVX2
    static const bool have_avx2 = __builtin_cpu_supports("avx2");
    if (have_avx2) {
        solveAllAvx2(lu, perm, n, b, lanes, x);
        return;
    }
#endif
    solveAll(lu, perm, n, b, lanes, x);
}

} // namespace vn::detail
