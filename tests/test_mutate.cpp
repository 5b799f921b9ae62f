// Unit tests of the streaming-mutability subsystem (src/mutate/): delta and
// tombstone accounting, the background merge lifecycle, sharded insert
// routing and shard draining, the serving layer's mutation entry points,
// and range search over a mutated index. The cross-backend behavioral lock
// (mutate-then-search vs a scratch rebuild, the uniform error contract,
// mutated serialize round-trips) lives in tests/conformance.hpp; these
// tests pin the mechanics the matrix can't see from the outside.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "common/counters.hpp"
#include "serve/service.hpp"
#include "test_util.hpp"

namespace rbc {
namespace {

Matrix<float> rows_of(const Matrix<float>& pool, index_t from, index_t n) {
  Matrix<float> out(n, pool.cols());
  for (index_t i = 0; i < n; ++i) out.copy_row_from(pool, from + i, i);
  return out;
}

IndexOptions inline_merge_options(index_t max_delta) {
  IndexOptions options;
  options.rbc.seed = 7;
  options.max_delta = max_delta;
  options.background_merge = false;
  return options;
}

TEST(MutableIndex, DeltaAndTombstoneAccounting) {
  const Matrix<float> pool = testutil::clustered_matrix(40, 6, 4, 301);
  auto index = make_index("bruteforce", inline_merge_options(1024));
  index->build(rows_of(pool, 0, 20));
  EXPECT_EQ(index->info().size, 20u);
  EXPECT_EQ(index->info().delta_rows, 0u);
  EXPECT_EQ(index->info().tombstones, 0u);
  EXPECT_TRUE(index->info().supports_mutation);

  const std::vector<index_t> new_ids{20, 21, 22};
  index->insert(rows_of(pool, 20, 3), new_ids);
  EXPECT_EQ(index->info().size, 23u);
  EXPECT_EQ(index->info().delta_rows, 3u);
  EXPECT_EQ(index->info().tombstones, 0u);

  // Two main rows become tombstones; one delta row disappears outright.
  const std::vector<index_t> dropped{3, 15, 21};
  EXPECT_EQ(index->remove(dropped), 3u);
  EXPECT_EQ(index->info().size, 20u);
  EXPECT_EQ(index->info().delta_rows, 2u);
  EXPECT_EQ(index->info().tombstones, 2u);

  const std::vector<index_t> live = index->live_ids();
  EXPECT_EQ(live.size(), 20u);
  EXPECT_EQ(std::count(live.begin(), live.end(), 3u), 0);
  EXPECT_EQ(std::count(live.begin(), live.end(), 21u), 0);
  EXPECT_EQ(std::count(live.begin(), live.end(), 22u), 1);

  // compact() folds everything back into the main structure.
  index->compact();
  EXPECT_EQ(index->info().size, 20u);
  EXPECT_EQ(index->info().delta_rows, 0u);
  EXPECT_EQ(index->info().tombstones, 0u);
  EXPECT_EQ(index->live_ids(), live);
}

TEST(MutableIndex, BackgroundMergeFoldsTheDelta) {
  const Matrix<float> pool = testutil::clustered_matrix(60, 6, 4, 302);
  IndexOptions options;
  options.rbc.seed = 7;
  options.max_delta = 4;
  options.background_merge = true;
  auto index = make_index("rbc-exact", options);
  index->build(rows_of(pool, 0, 30));

  // Crossing max_delta launches the merge thread; compact() joins it (and
  // folds whatever is left), so afterwards the structure must be clean.
  const std::vector<index_t> batch{30, 31, 32, 33};
  index->insert(rows_of(pool, 30, 4), batch);
  index->compact();
  EXPECT_EQ(index->info().size, 34u);
  EXPECT_EQ(index->info().delta_rows, 0u);
  EXPECT_EQ(index->info().tombstones, 0u);

  // The merged structure answers exactly like a scratch build over the
  // same 34 rows (ids are 0..33, so a plain build matches).
  auto scratch = make_index("rbc-exact", options);
  scratch->build(rows_of(pool, 0, 34));
  const Matrix<float> Q = testutil::random_matrix(8, 6, 303);
  const KnnResult a = index->knn_search({.queries = &Q, .k = 5}).knn;
  const KnnResult b = scratch->knn_search({.queries = &Q, .k = 5}).knn;
  EXPECT_TRUE(testutil::knn_equal(a, b));
}

TEST(MutableIndex, EmptyBuildThenInsertBecomesSearchable) {
  auto index = make_index("bruteforce", inline_merge_options(1024));
  const Matrix<float> empty(0, 5);
  index->build(empty);  // a valid built state with zero rows
  EXPECT_EQ(index->info().size, 0u);
  EXPECT_EQ(index->info().dim, 5u);

  const Matrix<float> pool = testutil::clustered_matrix(10, 5, 2, 304);
  const std::vector<index_t> ids{0, 1, 2};
  index->insert(rows_of(pool, 0, 3), ids);
  EXPECT_EQ(index->info().size, 3u);
  const Matrix<float> Q = testutil::random_matrix(2, 5, 305);
  const KnnResult r = index->knn_search({.queries = &Q, .k = 3}).knn;
  for (index_t qi = 0; qi < Q.rows(); ++qi) {
    EXPECT_LE(r.dists.at(qi, 0), r.dists.at(qi, 1));
    EXPECT_LE(r.dists.at(qi, 1), r.dists.at(qi, 2));
  }
}

TEST(MutableIndex, RangeSearchSeesDeltaAndMasksTombstones) {
  const Matrix<float> pool = testutil::clustered_matrix(50, 6, 4, 306);
  auto index = make_index("bruteforce", inline_merge_options(1024));
  index->build(rows_of(pool, 0, 30));
  const std::vector<index_t> new_ids{30, 31, 32, 33};
  index->insert(rows_of(pool, 30, 4), new_ids);
  const std::vector<index_t> dropped{5, 17, 31};
  ASSERT_EQ(index->remove(dropped), 3u);

  // Scratch reference over exactly the live rows, with the same ids: the
  // range answer (an exact set) must match id-for-id.
  std::vector<index_t> live = index->live_ids();
  Matrix<float> live_rows(static_cast<index_t>(live.size()), 6);
  for (index_t i = 0; i < live_rows.rows(); ++i)
    live_rows.copy_row_from(pool, live[i], i);
  auto scratch = make_index("bruteforce", inline_merge_options(1024));
  scratch->build_with_ids(live_rows, live);

  const Matrix<float> Q = testutil::random_matrix(5, 6, 307);
  for (const float radius : {0.5f, 2.0f, 10.0f}) {
    const RangeResponse a =
        index->range_search({.queries = &Q, .radius = radius});
    const RangeResponse b =
        scratch->range_search({.queries = &Q, .radius = radius});
    ASSERT_EQ(a.ids.size(), b.ids.size());
    for (std::size_t qi = 0; qi < a.ids.size(); ++qi)
      EXPECT_EQ(a.ids[qi], b.ids[qi]) << "radius=" << radius << " qi=" << qi;
  }
}

TEST(ShardedMutation, InsertsRouteToTheLeastFullShard) {
  // 2 rows over 3 shards: one shard starts empty and info().shards reports
  // only the answering shards; the first insert must fill the empty slot.
  const Matrix<float> pool = testutil::clustered_matrix(20, 5, 2, 308);
  IndexOptions options = inline_merge_options(1024);
  options.num_shards = 3;
  auto index = make_index("sharded:bruteforce", options);
  index->build(rows_of(pool, 0, 2));
  EXPECT_EQ(index->info().shards, 2u);

  const std::vector<index_t> first{10};
  index->insert(rows_of(pool, 2, 1), first);
  EXPECT_EQ(index->info().shards, 3u);
  EXPECT_EQ(index->info().size, 3u);

  // Draining every row of a shard makes it search-invisible again, and
  // searches still answer over what is left.
  const std::vector<index_t> drop{10};
  ASSERT_EQ(index->remove(drop), 1u);
  EXPECT_EQ(index->info().shards, 2u);
  const Matrix<float> Q = testutil::random_matrix(3, 5, 309);
  const KnnResult r = index->knn_search({.queries = &Q, .k = 2}).knn;
  for (index_t qi = 0; qi < Q.rows(); ++qi) {
    const std::set<index_t> got{r.ids.at(qi, 0), r.ids.at(qi, 1)};
    EXPECT_EQ(got, (std::set<index_t>{0, 1}));
  }
}

TEST(ShardedMutation, MutatedShardedSaveReloadsIdNative) {
  // After mutation the shard assignment no longer matches the positional
  // partition; the round-trip must restore the actual id routing (the
  // legacy derived assignment would misattribute every remapped id).
  const Matrix<float> pool = testutil::clustered_matrix(40, 6, 3, 310);
  IndexOptions options = inline_merge_options(1024);
  options.num_shards = 3;
  auto index = make_index("sharded:bruteforce", options);
  index->build(rows_of(pool, 0, 20));
  const std::vector<index_t> new_ids{100, 101};
  index->insert(rows_of(pool, 20, 2), new_ids);
  const std::vector<index_t> dropped{0, 19};
  ASSERT_EQ(index->remove(dropped), 2u);

  std::stringstream stream;
  index->save(stream);
  const auto restored = load_index(stream);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->info().backend, "sharded:bruteforce");
  EXPECT_TRUE(restored->info().supports_mutation);
  EXPECT_EQ(restored->live_ids(), index->live_ids());

  const Matrix<float> Q = testutil::random_matrix(6, 6, 311);
  const KnnResult before = index->knn_search({.queries = &Q, .k = 4}).knn;
  const KnnResult after = restored->knn_search({.queries = &Q, .k = 4}).knn;
  EXPECT_TRUE(testutil::knn_equal(before, after));

  // The restored routing map accepts further mutation on the right shard.
  const std::vector<index_t> again{100};
  EXPECT_EQ(restored->remove(again), 1u);
  EXPECT_EQ(restored->info().size, index->info().size - 1);
}

TEST(MutableIndex, ReloadKeepsTheMergeThreshold) {
  // The saved header carries max_delta and background_merge: a reloaded
  // index merges at the threshold it was built with, not at the default.
  const Matrix<float> pool = testutil::clustered_matrix(120, 6, 4, 313);
  auto index = make_index("rbc-exact", inline_merge_options(64));
  index->build(rows_of(pool, 0, 40));
  std::stringstream stream;
  index->save(stream);
  const auto restored = load_index(stream);

  std::vector<index_t> ids(63);
  std::iota(ids.begin(), ids.end(), index_t{40});
  restored->insert(rows_of(pool, 40, 63), ids);
  EXPECT_EQ(restored->info().delta_rows, 63u);
  // The 64th buffered row reaches the threshold. The merge runs inline
  // (background_merge = false was restored too), so the delta is empty
  // when insert() returns.
  const std::vector<index_t> last{103};
  restored->insert(rows_of(pool, 103, 1), last);
  EXPECT_EQ(restored->info().delta_rows, 0u);
  EXPECT_EQ(restored->info().size, 104u);
}

TEST(MutableIndex, LoadReadsTheSavedStructureWithoutBuilding) {
  // A load reads the saved structure back instead of rebuilding it, so it
  // evaluates no distance at all (a rebuild of rbc-exact costs n * nr).
  const Matrix<float> X = testutil::clustered_matrix(300, 8, 5, 314);
  const Matrix<float> Q = testutil::random_matrix(6, 8, 315);
  for (const std::string backend :
       {"rbc-exact", "rbc-oneshot", "sharded:rbc-exact"}) {
    SCOPED_TRACE(backend);
    auto index =
        make_index(backend, {.rbc = {.seed = 316}, .num_shards = 3});
    index->build(X);
    std::stringstream stream;
    index->save(stream);
    const counters::Scope scope;
    const auto restored = load_index(stream);
    EXPECT_EQ(scope.delta(), 0u);
    EXPECT_TRUE(testutil::knn_equal(
        index->knn_search({.queries = &Q, .k = 5}).knn,
        restored->knn_search({.queries = &Q, .k = 5}).knn));
  }
}

TEST(ServiceMutation, InsertRemoveFlowThroughTheService) {
  const Matrix<float> pool = testutil::clustered_matrix(30, 6, 3, 312);
  auto index = make_index("bruteforce", inline_merge_options(1024));
  index->build(rows_of(pool, 0, 10));
  serve::SearchService service(std::move(index), {.max_batch = 16});

  // k is admitted against the live size: 10 rows now, 12 after the insert.
  const Matrix<float> Q = testutil::random_matrix(1, 6, 313);
  EXPECT_THROW((void)service.submit_batch(Q, 11), std::invalid_argument);

  const std::vector<index_t> new_ids{10, 11};
  service.insert(rows_of(pool, 10, 2), new_ids);
  std::future<KnnResult> f = service.submit_batch(Q, 11);
  const KnnResult r = f.get();
  EXPECT_EQ(r.ids.cols(), 11u);

  // Searches answer over the mutated database: a query equal to a freshly
  // inserted row finds it at distance zero.
  Matrix<float> probe(1, 6);
  probe.copy_row_from(pool, 11, 0);
  const serve::QueryResult nearest =
      service.submit(std::span<const float>(probe.row(0), 6), 1).get();
  EXPECT_EQ(nearest.ids[0], 11u);
  EXPECT_EQ(nearest.dists[0], 0.0f);

  EXPECT_EQ(service.remove(new_ids), 2u);
  EXPECT_THROW((void)service.submit_batch(Q, 11), std::invalid_argument);
  service.compact();
  EXPECT_EQ(service.index().info().delta_rows, 0u);
  EXPECT_EQ(service.index().info().tombstones, 0u);
  service.stop();
}

TEST(ServiceMutation, IncapableBackendRejectsServiceMutation) {
  const Matrix<float> X = testutil::clustered_matrix(12, 5, 2, 314);
  auto index = make_index("gpu-bf", {.gpu_workers = 2});
  index->build(X);
  serve::SearchService service(std::move(index), {});
  Matrix<float> one(1, 5);
  for (index_t j = 0; j < 5; ++j) one.at(0, j) = 1.0f;
  const std::vector<index_t> id{100};
  EXPECT_THROW(service.insert(one, id), std::runtime_error);
  EXPECT_THROW((void)service.remove(id), std::runtime_error);
  service.stop();
}

}  // namespace
}  // namespace rbc
