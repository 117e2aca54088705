/**
 * @file
 * A dense n x d matrix of doubles stored row-major in one contiguous
 * array: the signature-space rows the offline k-means and the
 * sampling subsystem read.
 */

#ifndef TPCP_COMMON_ROW_MATRIX_HH
#define TPCP_COMMON_ROW_MATRIX_HH

#include <cstddef>
#include <vector>

namespace tpcp
{

/** n rows of d doubles; row i is `m[i]`, a pointer to d values. */
class RowMatrix
{
  public:
    RowMatrix() = default;

    /** @p n rows of @p d zeros. */
    RowMatrix(std::size_t n, std::size_t d)
        : n_(n), d_(d), values_(n * d, 0.0)
    {
    }

    /** Number of rows. */
    std::size_t size() const { return n_; }

    bool empty() const { return n_ == 0; }

    /** Values per row. */
    std::size_t dims() const { return d_; }

    double *operator[](std::size_t i) { return values_.data() + i * d_; }

    const double *
    operator[](std::size_t i) const
    {
        return values_.data() + i * d_;
    }

  private:
    std::size_t n_ = 0;
    std::size_t d_ = 0;
    std::vector<double> values_;
};

} // namespace tpcp

#endif // TPCP_COMMON_ROW_MATRIX_HH
