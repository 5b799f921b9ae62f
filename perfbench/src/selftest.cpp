// Self-checks of the benchmark's own helpers, run before every measurement:
// a helper that is wrong would make every number after it wrong.
#include "selftest.hpp"

#include <cmath>

#include "checker.hpp"
#include "util.hpp"

namespace pb {
namespace {

std::string check_percentile_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  if (percentile(v, 0.5) != 500.0) return "p50 of 1..1000 is not 500";
  if (percentile(v, 0.99) != 990.0) return "p99 of 1..1000 is not 990";
  if (samples_beyond(1000, 0.99) != 10) return "p99 of 1000 must leave 10 beyond";
  v.pop_back();  // 999 samples leave only 9 beyond the p99 rank
  try {
    (void)percentile(v, 0.99);
    return "p99 of 999 samples was accepted";
  } catch (const std::runtime_error&) {
  }
  return {};
}

std::string check_poisson_schedule() {
  const auto a = poisson_schedule(1000.0, 2.0, 42);
  const auto b = poisson_schedule(1000.0, 2.0, 42);
  const auto c = poisson_schedule(1000.0, 2.0, 43);
  if (a != b) return "same seed gave two schedules";
  if (a == c) return "different seeds gave one schedule";
  for (std::size_t i = 1; i < a.size(); ++i)
    if (a[i] < a[i - 1] || a[i] >= 2.0) return "schedule not ascending in [0, 2)";
  // 2000 expected arrivals; a Poisson count is within 5 sigma of that.
  if (std::fabs(static_cast<double>(a.size()) - 2000.0) > 5 * std::sqrt(2000.0))
    return "schedule rate is off: " + std::to_string(a.size()) + " in 2 s";
  return {};
}

std::string check_lateness() {
  Lateness late;
  for (int i = 0; i < 990; ++i) late.record(i * 0.001, i * 0.001);  // on time
  late.record(1.0, 0.999);                                         // early -> 0
  for (int i = 0; i < 20; ++i) late.record(2.0, 2.005);            // 5 ms late
  if (late.count() != 1011) return "lateness lost samples";
  if (late.p50_ms() != 0.0) return "on-time sends must count 0 late";
  if (std::fabs(late.p99_ms() - 5.0) > 1e-6) return "p99 lateness not 5 ms";
  return {};
}

std::string check_reference_checker() {
  // Four rows in 2-d; rows 1 and 2 lie at the same distance from q.
  rbc::Matrix<float> db(4, 2);
  const float pts[4][2] = {{0, 0}, {1, 0}, {0, 1}, {3, 3}};
  for (index_t i = 0; i < 4; ++i) {
    db.at(i, 0) = pts[i][0];
    db.at(i, 1) = pts[i][1];
  }
  const float q[2] = {0.1f, 0.1f};
  ReferenceChecker checker(RowTable{&db}, 2);
  const auto ref = checker.references({q}, nullptr, 2)[0];
  const double d0 = std::sqrt(0.02);
  const double d1 = std::sqrt(0.81 + 0.01);
  if (ref.size() != 2 || !ReferenceChecker::close(ref[0], d0) ||
      !ReferenceChecker::close(ref[1], d1))
    return "reference distances wrong on the tie case";
  const auto f = [](double d) { return static_cast<float>(d); };
  // Either tied id is a right answer.
  if (!checker.check_exact(q, {{0, 1}, {f(d0), f(d1)}}, ref).empty() ||
      !checker.check_exact(q, {{0, 2}, {f(d0), f(d1)}}, ref).empty())
    return "a tied id was refused";
  // Wrong answers of each kind are refused.
  if (checker.check_exact(q, {{0, 3}, {f(d0), f(std::sqrt(2 * 2.9 * 2.9))}}, ref).empty())
    return "a farther row was accepted";
  if (checker.check_exact(q, {{1, 0}, {f(d1), f(d0)}}, ref).empty())
    return "descending distances were accepted";
  if (checker.check_exact(q, {{1, 1}, {f(d1), f(d1)}}, ref).empty())
    return "a repeated id was accepted";
  if (checker.check_exact(q, {{0, 1}, {f(d0), f(d1 + 0.5)}}, ref).empty())
    return "a misreported distance was accepted";
  if (checker.check_exact(q, {{0, 7}, {f(d0), f(d1)}}, ref).empty())
    return "an unknown id was accepted";
  // The candidate-restricted scan (live set) skips removed rows.
  const std::vector<index_t> live{0, 3};
  const auto ref_live = checker.references({q}, &live, 1)[0];
  if (!ReferenceChecker::close(ref_live[1], std::sqrt(2 * 2.9 * 2.9)))
    return "live-set reference ignored the candidate list";
  return {};
}

}  // namespace

std::string run_self_checks() {
  for (auto check : {check_percentile_rule, check_poisson_schedule,
                     check_lateness, check_reference_checker}) {
    std::string err = check();
    if (!err.empty()) return err;
  }
  return {};
}

}  // namespace pb
