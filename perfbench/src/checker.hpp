// Reference checker: exact k-NN by its own double-precision scan. It shares
// no code with the library's search paths (no kernels, no top-k heaps, no
// parallel runtime); only the row storage type is common.
#pragma once

#include <string>
#include <vector>

#include "common/matrix.hpp"

namespace pb {

using rbc::index_t;

/// Rows by id: ids below base->rows() are database rows; ids in
/// [extra_offset, extra_offset + extra->rows()) are rows inserted later.
struct RowTable {
  const rbc::Matrix<float>* base = nullptr;
  const rbc::Matrix<float>* extra = nullptr;
  index_t extra_offset = 0;

  index_t dim() const { return base->cols(); }
  /// Null for an id the table does not know.
  const float* row(index_t id) const;
};

/// One k-NN answer as the program returned it.
struct Answer {
  std::vector<index_t> ids;
  std::vector<float> dists;
};

class ReferenceChecker {
 public:
  ReferenceChecker(RowTable rows, index_t k) : rows_(rows), k_(k) {}

  /// Euclidean distance in double precision.
  double distance(const float* q, const float* x) const;

  /// The k smallest distances from q, ascending, over `candidates` (every
  /// base row when null), for each query; scanned on `threads` threads.
  std::vector<std::vector<double>> references(
      const std::vector<const float*>& queries,
      const std::vector<index_t>* candidates, int threads) const;

  /// Empty when `a` holds k distinct known ids in ascending distance order,
  /// each distance matching this checker's own recomputation; otherwise
  /// what is wrong.
  std::string check_shape(const float* q, const Answer& a) const;

  /// check_shape, plus: the answer's distance multiset equals the
  /// reference (tie-tolerant: which of several equidistant ids is returned
  /// does not matter).
  std::string check_exact(const float* q, const Answer& a,
                          const std::vector<double>& reference) const;

  static bool close(double a, double b) {
    const double scale = a > b ? a : b;
    return (a > b ? a - b : b - a) <= 1e-4 * (scale > 1.0 ? scale : 1.0);
  }

 private:
  std::vector<double> scan(const float* q,
                           const std::vector<index_t>* candidates) const;

  RowTable rows_;
  index_t k_;
};

}  // namespace pb
