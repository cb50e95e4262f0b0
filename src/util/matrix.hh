/**
 * @file
 * Minimal dense linear algebra: a row-major matrix and LU factorization
 * with partial pivoting, templated over the scalar field so the same code
 * serves the real-valued transient solver and the complex-valued AC
 * (impedance) analysis.
 *
 * PDN netlists produce systems of a few dozen unknowns, so a dense direct
 * solver is both simple and fast; the transient loop factorizes once per
 * time-step size and then performs only forward/back substitutions.
 */

#ifndef VN_UTIL_MATRIX_HH
#define VN_UTIL_MATRIX_HH

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "util/logging.hh"

namespace vn
{

/** Magnitude used for pivot selection; overloaded for complex. */
inline double fieldAbs(double x) { return std::fabs(x); }
inline double fieldAbs(const std::complex<double> &x) { return std::abs(x); }

namespace detail
{

/**
 * Lane-batched LU substitution kernel for double (lanes.cc): the one
 * dense substitution every real-valued solve runs, one lane or many.
 * Each of the `lanes` SoA right-hand sides gets the same operation
 * sequence; element (i, k) lives at `i * lanes + k` in both `b` and
 * `x`. `lu` is the row-major n x n factorization and `perm` the row
 * permutation. Compiled out of line so the chunked inner loops get
 * constant trip counts (register accumulators) and, on x86-64, a
 * runtime-dispatched AVX2 clone.
 */
void solveLanesDouble(const double *lu, const size_t *perm, size_t n,
                      const double *b, size_t lanes, double *x);

} // namespace detail

/**
 * Dense row-major matrix over field T (double or std::complex<double>).
 */
template <typename T>
class Matrix
{
  public:
    Matrix() = default;

    /** Create a rows x cols matrix initialized to zero. */
    Matrix(size_t rows, size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, T{})
    {}

    /** Number of rows. */
    size_t rows() const { return rows_; }

    /** Number of columns. */
    size_t cols() const { return cols_; }

    /** Mutable element access (unchecked). */
    T &operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }

    /** Const element access (unchecked). */
    const T &
    operator()(size_t r, size_t c) const
    {
        return data_[r * cols_ + c];
    }

    /** Reset every element to zero, keeping the shape. */
    void
    setZero()
    {
        std::fill(data_.begin(), data_.end(), T{});
    }

    /** Raw row-major storage (rows() * cols() elements). */
    const T *data() const { return data_.data(); }

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    std::vector<T> data_;
};

/**
 * LU factorization with partial pivoting of a square matrix.
 *
 * Factorize once, then solve() any number of right-hand sides, one at a
 * time or as SoA lanes; this is the hot path of the transient solver (one
 * factorization per time-step size, one substitution per step).
 */
template <typename T>
class LuSolver
{
  public:
    LuSolver() = default;

    /** Factorize the given square matrix. Calls fatal() on singularity. */
    explicit LuSolver(const Matrix<T> &a) { factorize(a); }

    /** (Re-)factorize. */
    void
    factorize(const Matrix<T> &a)
    {
        if (a.rows() != a.cols())
            fatal("LuSolver: matrix must be square, got ", a.rows(), "x",
                  a.cols());
        n_ = a.rows();
        lu_ = a;
        perm_.resize(n_);
        for (size_t i = 0; i < n_; ++i)
            perm_[i] = i;

        for (size_t k = 0; k < n_; ++k) {
            // Partial pivoting: pick the largest-magnitude entry in
            // column k at or below the diagonal.
            size_t pivot = k;
            double best = fieldAbs(lu_(k, k));
            for (size_t i = k + 1; i < n_; ++i) {
                double mag = fieldAbs(lu_(i, k));
                if (mag > best) {
                    best = mag;
                    pivot = i;
                }
            }
            if (best == 0.0)
                fatal("LuSolver: singular matrix (pivot column ", k, ")");
            if (pivot != k) {
                for (size_t j = 0; j < n_; ++j)
                    std::swap(lu_(k, j), lu_(pivot, j));
                std::swap(perm_[k], perm_[pivot]);
            }
            for (size_t i = k + 1; i < n_; ++i) {
                T factor = lu_(i, k) / lu_(k, k);
                lu_(i, k) = factor;
                if (factor == T{})
                    continue;
                for (size_t j = k + 1; j < n_; ++j)
                    lu_(i, j) -= factor * lu_(k, j);
            }
        }
        factorized_ = true;
    }

    /** Solve A x = b; returns x. One lane of solveLanesInto(). */
    std::vector<T>
    solve(const std::vector<T> &b) const
    {
        std::vector<T> x;
        solveLanesInto(b, 1, x);
        return x;
    }

    /**
     * Solve K right-hand sides laid out as SoA lanes: `b` and `x` hold
     * `size() * lanes` entries where element (i, k) of unknown i and
     * lane k lives at index `i * lanes + k`.
     *
     * This is the one substitution: solve() is its one-lane call. Each
     * lane performs the same operation sequence (permuted forward
     * substitution of L, then back substitution of U, same j-loop
     * order, no zero-pivot short cuts) and no arithmetic crosses
     * lanes, so lane k of the result does not depend on the batch
     * width or on lane k's position in it. The lane loop is innermost
     * over contiguous memory, which lets the compiler vectorize and
     * amortizes every lu_(i, j) load over all lanes.
     */
    void
    solveLanesInto(const std::vector<T> &b, size_t lanes,
                   std::vector<T> &x) const
    {
        if (!factorized_)
            panic("LuSolver::solveLanesInto() before factorize()");
        if (lanes == 0)
            fatal("LuSolver::solveLanesInto(): lanes must be >= 1");
        if (b.size() != n_ * lanes)
            fatal("LuSolver::solveLanesInto(): rhs size ", b.size(),
                  " does not match ", n_, " unknowns x ", lanes,
                  " lanes");
        x.resize(n_ * lanes);
        if constexpr (std::is_same_v<T, double>) {
            // Hot path: out-of-line kernel whose lane chunks have
            // compile-time trip counts, so the per-row running sums
            // stay in vector registers across the whole j loop.
            detail::solveLanesDouble(lu_.data(), perm_.data(), n_,
                                     b.data(), lanes, x.data());
            return;
        }
        // Generic field (complex AC analysis): plain lane loop, same
        // per-lane operation sequence as the double kernel.
        for (size_t i = 0; i < n_; ++i) {
            const T *bp = &b[perm_[i] * lanes];
            T *xi = &x[i * lanes];
            for (size_t k = 0; k < lanes; ++k)
                xi[k] = bp[k];
            for (size_t j = 0; j < i; ++j) {
                const T factor = lu_(i, j);
                const T *xj = &x[j * lanes];
                for (size_t k = 0; k < lanes; ++k)
                    xi[k] -= factor * xj[k];
            }
        }
        for (size_t ii = n_; ii-- > 0;) {
            T *xi = &x[ii * lanes];
            for (size_t j = ii + 1; j < n_; ++j) {
                const T factor = lu_(ii, j);
                const T *xj = &x[j * lanes];
                for (size_t k = 0; k < lanes; ++k)
                    xi[k] -= factor * xj[k];
            }
            const T diag = lu_(ii, ii);
            for (size_t k = 0; k < lanes; ++k)
                xi[k] /= diag;
        }
    }

    /** System size. */
    size_t size() const { return n_; }

    /** Whether factorize() succeeded. */
    bool factorized() const { return factorized_; }

  private:
    size_t n_ = 0;
    Matrix<T> lu_;
    std::vector<size_t> perm_;
    bool factorized_ = false;
};

} // namespace vn

#endif // VN_UTIL_MATRIX_HH
