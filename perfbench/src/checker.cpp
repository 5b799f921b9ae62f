#include "checker.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

namespace pb {

const float* RowTable::row(index_t id) const {
  if (id < base->rows()) return base->row(id);
  if (extra != nullptr && id >= extra_offset &&
      id - extra_offset < extra->rows())
    return extra->row(id - extra_offset);
  return nullptr;
}

double ReferenceChecker::distance(const float* q, const float* x) const {
  double sum = 0.0;
  for (index_t j = 0; j < rows_.dim(); ++j) {
    const double diff = static_cast<double>(q[j]) - static_cast<double>(x[j]);
    sum += diff * diff;
  }
  return std::sqrt(sum);
}

std::vector<double> ReferenceChecker::scan(
    const float* q, const std::vector<index_t>* candidates) const {
  // Max-heap of the k best so far.
  std::vector<double> best;
  best.reserve(k_ + 1);
  auto offer = [&](double d) {
    if (best.size() < k_) {
      best.push_back(d);
      std::push_heap(best.begin(), best.end());
    } else if (d < best.front()) {
      std::pop_heap(best.begin(), best.end());
      best.back() = d;
      std::push_heap(best.begin(), best.end());
    }
  };
  if (candidates == nullptr) {
    for (index_t i = 0; i < rows_.base->rows(); ++i)
      offer(distance(q, rows_.base->row(i)));
  } else {
    for (index_t id : *candidates) offer(distance(q, rows_.row(id)));
  }
  std::sort_heap(best.begin(), best.end());
  return best;
}

std::vector<std::vector<double>> ReferenceChecker::references(
    const std::vector<const float*>& queries,
    const std::vector<index_t>* candidates, int threads) const {
  std::vector<std::vector<double>> out(queries.size());
  std::vector<std::thread> pool;
  const int t_count = std::max(1, threads);
  for (int t = 0; t < t_count; ++t)
    pool.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < queries.size();
           i += static_cast<std::size_t>(t_count))
        out[i] = scan(queries[i], candidates);
    });
  for (auto& th : pool) th.join();
  return out;
}

std::string ReferenceChecker::check_shape(const float* q,
                                          const Answer& a) const {
  if (a.ids.size() != k_ || a.dists.size() != k_)
    return "answer holds " + std::to_string(a.ids.size()) + " ids, want " +
           std::to_string(k_);
  std::vector<index_t> sorted = a.ids;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
    return "answer repeats an id";
  for (index_t i = 0; i < k_; ++i) {
    const float* x = rows_.row(a.ids[i]);
    if (x == nullptr) return "answer names unknown id " + std::to_string(a.ids[i]);
    if (i > 0 && a.dists[i] < a.dists[i - 1])
      return "distances not ascending at rank " + std::to_string(i);
    const double d = distance(q, x);
    if (!close(d, a.dists[i]))
      return "id " + std::to_string(a.ids[i]) + " reported at distance " +
             std::to_string(a.dists[i]) + ", recomputed " + std::to_string(d);
  }
  return {};
}

std::string ReferenceChecker::check_exact(
    const float* q, const Answer& a, const std::vector<double>& reference) const {
  std::string shape = check_shape(q, a);
  if (!shape.empty()) return shape;
  if (reference.size() != k_) return "reference holds fewer than k rows";
  for (index_t i = 0; i < k_; ++i)
    if (!close(reference[i], a.dists[i]))
      return "rank " + std::to_string(i) + " distance " +
             std::to_string(a.dists[i]) + ", reference " +
             std::to_string(reference[i]);
  return {};
}

}  // namespace pb
