// Corrupt-file regression tests for rbc::load_index's magic dispatch: a
// truncated, bit-flipped, or length-corrupted stream must fail with a clear
// std::runtime_error — never UB, an abort, or a garbage-length allocation.
// Covers every serializable registered backend (including the sharded
// composite, whose loader recurses through load_index per shard).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "common/counters.hpp"
#include "metricspace/dataset.hpp"
#include "rbc/rbc_exact.hpp"
#include "rbc/rbc_oneshot.hpp"
#include "rbc/serialize_io.hpp"
#include "test_util.hpp"

namespace rbc {
namespace {

/// Serialized bytes of a small built index for the given backend, or empty
/// when the backend does not support save.
std::string saved_bytes(const std::string& backend) {
  auto index = make_index(backend, {.rbc = {.seed = 51}, .num_shards = 3});
  index->build(testutil::clustered_matrix(120, 6, 4, 52));
  if (!index->info().supports_save) return {};
  std::stringstream stream;
  index->save(stream);
  return stream.str();
}

TEST(CorruptFiles, TruncationAtEveryRegionThrowsCleanly) {
  for (const std::string& backend : registered_backends()) {
    const std::string bytes = saved_bytes(backend);
    if (bytes.empty()) continue;
    // Cut inside the magic, the header, and the payload, plus one byte
    // short of complete — each must throw std::runtime_error (and only
    // that), leaving no UB for the driver to hit.
    std::vector<std::size_t> cuts{std::size_t{0},   std::size_t{2},
                                  std::size_t{7},   bytes.size() / 3,
                                  bytes.size() / 2, bytes.size() * 5 / 6,
                                  bytes.size() - 1};
    // Version-7 streams end with the raw backend's own stream for the
    // saved structure, which leads with the same magic: cut at its start,
    // inside its header, and halfway through it.
    const std::size_t inner = bytes.find(bytes.substr(0, 4), 8);
    if (inner != std::string::npos)
      for (const std::size_t at :
           {inner, inner + 4, inner + 9, inner + (bytes.size() - inner) / 2})
        cuts.push_back(at);
    for (const std::size_t cut : cuts) {
      SCOPED_TRACE(backend + " truncated to " + std::to_string(cut) +
                   " of " + std::to_string(bytes.size()) + " bytes");
      std::stringstream stream(bytes.substr(0, cut));
      EXPECT_THROW((void)load_index(stream), std::runtime_error);
    }
    // The untruncated bytes still load (the cuts failed for the right
    // reason).
    std::stringstream intact(bytes);
    EXPECT_NO_THROW((void)load_index(intact)) << backend;
  }
}

TEST(CorruptFiles, UnknownMagicIsRejectedWithAClearError) {
  std::stringstream garbage("definitely not an rbc index file");
  try {
    (void)load_index(garbage);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
        << "error should mention the magic: " << e.what();
  }

  std::stringstream empty;
  EXPECT_THROW((void)load_index(empty), std::runtime_error);

  std::stringstream two_bytes("ab");
  EXPECT_THROW((void)load_index(two_bytes), std::runtime_error);
}

TEST(CorruptFiles, GarbageLengthFieldFailsBeforeAllocating) {
  // A valid magic followed by an absurd matrix header: the loader must
  // reject the claimed size against the actual stream length instead of
  // attempting a multi-gigabyte (or overflowing) allocation.
  std::stringstream stream;
  io::write_pod(stream, io::kMagicBruteForce);
  io::write_pod(stream, io::kFormatVersion);
  io::write_pod(stream, index_t{0xFFFFFFFFu});  // rows
  io::write_pod(stream, index_t{0xFFFFFFFFu});  // cols
  EXPECT_THROW((void)load_index(stream), std::runtime_error);
}

TEST(CorruptFiles, ShardedStreamWithGarbageHeaderCountsFailsBeforeAllocating) {
  // Bit-flipped num_shards / row-count fields must be rejected against the
  // actual stream length, not fed to the partition-table allocation.
  {
    std::stringstream stream;
    io::write_pod(stream, io::kMagicSharded);
    io::write_pod(stream, io::kFormatVersion);
    io::write_string(stream, "bruteforce");
    io::write_string(stream, "contiguous");
    io::write_pod(stream, index_t{0x7FFFFFFFu});  // num_shards
    EXPECT_THROW((void)load_index(stream), std::runtime_error);
  }
  {
    std::stringstream stream;
    io::write_pod(stream, io::kMagicSharded);
    io::write_pod(stream, io::kFormatVersion);
    io::write_string(stream, "bruteforce");
    io::write_string(stream, "contiguous");
    io::write_pod(stream, index_t{2});            // num_shards
    io::write_pod(stream, index_t{0xFFFFFFFFu});  // rows
    io::write_pod(stream, index_t{4});            // dim
    io::write_pod(stream, std::uint64_t{2});      // stored shard count
    EXPECT_THROW((void)load_index(stream), std::runtime_error);
  }
}

TEST(CorruptFiles, ShardedStreamWithCorruptInnerNameThrows) {
  // A sharded header whose inner-backend name is garbage is a corrupt
  // file, reported as runtime_error (not the factory's invalid_argument).
  std::stringstream stream;
  io::write_pod(stream, io::kMagicSharded);
  io::write_pod(stream, io::kFormatVersion);
  io::write_string(stream, "no-such-backend");
  io::write_string(stream, "contiguous");
  io::write_pod(stream, index_t{2});  // num_shards
  EXPECT_THROW((void)load_index(stream), std::runtime_error);
}

TEST(CorruptFiles, UnknownMetricTagIsRejectedAsCorruption) {
  // A version-2 header whose metric tag is not in the registry is file
  // corruption: std::runtime_error (never the factory's invalid_argument,
  // which is reserved for caller errors).
  {
    std::stringstream stream;
    io::write_pod(stream, io::kMagicBruteForce);
    io::write_metric_header(stream, "no-such-metric");
    io::write_pod(stream, index_t{1});  // rows
    io::write_pod(stream, index_t{1});  // cols
    io::write_pod(stream, 1.0f);
    try {
      (void)load_index(stream);
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("metric"), std::string::npos)
          << "error should mention the metric tag: " << e.what();
    }
  }
  {
    // Tree formats share the header helper; kdtree declares l2/cosine only,
    // so a stored "l1" tag is corruption for it too.
    std::stringstream stream;
    io::write_pod(stream, io::kMagicKdTree);
    io::write_metric_header(stream, "l1");
    io::write_pod(stream, index_t{16});  // leaf_size
    io::write_pod(stream, index_t{1});   // rows
    io::write_pod(stream, index_t{1});   // cols
    io::write_pod(stream, 1.0f);
    EXPECT_THROW((void)load_index(stream), std::runtime_error);
  }
  {
    // Sharded header with a garbage metric tag.
    std::stringstream stream;
    io::write_pod(stream, io::kMagicSharded);
    io::write_metric_header(stream, "no-such-metric");
    io::write_string(stream, "bruteforce");
    io::write_string(stream, "contiguous");
    io::write_pod(stream, index_t{2});
    EXPECT_THROW((void)load_index(stream), std::runtime_error);
  }
  {
    // An unknown (version 6 — one past the mutable-storage v5) header is
    // rejected, not misparsed as some future format.
    std::stringstream stream;
    io::write_pod(stream, io::kMagicBruteForce);
    io::write_pod(stream, std::uint32_t{6});
    EXPECT_THROW((void)load_index(stream), std::runtime_error);
  }
}

TEST(CorruptFiles, QuantizedIndexesRoundTripThroughSaveAndLoad) {
  // Compressed-storage indexes persist their storage tag (format v5 through
  // make_index's mutable wrapper, v4 for raw streams) and their code store;
  // a reloaded index answers identically and reports the same storage.
  const Matrix<float> X = testutil::clustered_matrix(120, 6, 4, 70);
  const Matrix<float> Q = testutil::random_matrix(5, 6, 71);
  for (const std::string backend :
       {"bruteforce", "rbc-exact", "rbc-oneshot", "sharded:rbc-exact"}) {
    for (const std::string storage : {"fp16", "int8"}) {
      SCOPED_TRACE(backend + " / " + storage);
      IndexOptions options{.rbc = {.seed = 72}, .num_shards = 3};
      options.storage = storage;
      auto index = make_index(backend, options);
      index->build(X);
      std::stringstream stream;
      index->save(stream);
      const auto restored = load_index(stream);
      EXPECT_EQ(restored->info().storage, storage);
      EXPECT_EQ(restored->info().size, X.rows());
      EXPECT_TRUE(testutil::knn_equal(
          index->knn_search({.queries = &Q, .k = 4}).knn,
          restored->knn_search({.queries = &Q, .k = 4}).knn));
    }
  }
  // Cosine composes with storage through the same normalized-rows path.
  {
    IndexOptions options{.metric = "cosine"};
    options.storage = "int8";
    auto index = make_index("bruteforce", options);
    index->build(X);
    std::stringstream stream;
    index->save(stream);
    const auto restored = load_index(stream);
    EXPECT_EQ(restored->info().metric, "cosine");
    EXPECT_EQ(restored->info().storage, "int8");
    EXPECT_TRUE(testutil::knn_equal(
        index->knn_search({.queries = &Q, .k = 3}).knn,
        restored->knn_search({.queries = &Q, .k = 3}).knn));
  }
}

/// A hand-written raw (non-mutable) version-4 bruteforce stream: magic,
/// v4 header (metric + storage tags), float matrix, quantized store —
/// exactly the layout the raw backend's save() emits.
std::string raw_v4_bruteforce_bytes(const Matrix<float>& X,
                                    quant::Storage mode) {
  std::stringstream stream;
  io::write_pod(stream, io::kMagicBruteForce);
  io::write_storage_header(stream, "l2", quant::name(mode));
  io::write_matrix(stream, X);
  io::write_quantized_store(stream, quant::quantize(mode, X));
  return stream.str();
}

TEST(CorruptFiles, RawVersion4StreamsLoadAndRejectTruncatedStores) {
  const Matrix<float> X = testutil::clustered_matrix(80, 5, 3, 73);
  const Matrix<float> Q = testutil::random_matrix(4, 5, 74);
  auto fresh = make_index("bruteforce");
  fresh->build(X);
  const KnnResult expected = fresh->knn_search({.queries = &Q, .k = 3}).knn;

  for (const quant::Storage mode :
       {quant::Storage::kFp16, quant::Storage::kInt8}) {
    const std::string bytes = raw_v4_bruteforce_bytes(X, mode);
    SCOPED_TRACE(quant::name(mode));
    // The intact stream loads, reports its storage, and (exact re-measure)
    // answers bit-identically to the float32 index.
    std::stringstream intact(bytes);
    const auto index = load_index(intact);
    EXPECT_EQ(index->info().storage, quant::name(mode));
    EXPECT_TRUE(testutil::knn_equal(
        expected, index->knn_search({.queries = &Q, .k = 3}).knn));

    // Every cut inside the appended quantized-store region — the bytes a
    // crash mid-save would truncate — throws cleanly.
    std::stringstream prefix_stream;
    io::write_pod(prefix_stream, io::kMagicBruteForce);
    io::write_storage_header(prefix_stream, "l2", quant::name(mode));
    io::write_matrix(prefix_stream, X);
    const std::size_t prefix = prefix_stream.str().size();
    ASSERT_GT(bytes.size(), prefix);
    const std::size_t tail = bytes.size() - prefix;
    for (const std::size_t cut :
         {prefix, prefix + tail / 4, prefix + tail / 2, bytes.size() - 1}) {
      SCOPED_TRACE("truncated to " + std::to_string(cut) + " of " +
                   std::to_string(bytes.size()) + " bytes");
      std::stringstream stream(bytes.substr(0, cut));
      EXPECT_THROW((void)load_index(stream), std::runtime_error);
    }
  }
}

TEST(CorruptFiles, CorruptStorageTagsAndStoreFieldsAreRejected) {
  const Matrix<float> X = testutil::clustered_matrix(40, 4, 3, 75);
  // Raw v4 header carrying an unregistered storage tag: corruption
  // (runtime_error naming the tag), never the factory's invalid_argument.
  {
    std::stringstream stream;
    io::write_pod(stream, io::kMagicBruteForce);
    io::write_pod(stream, io::kFormatVersionStorage);
    io::write_string(stream, "l2");
    io::write_string(stream, "int4");
    io::write_matrix(stream, X);
    try {
      (void)load_index(stream);
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("storage"), std::string::npos)
          << "error should mention the storage tag: " << e.what();
    }
  }
  // Mutable v5 header with an unknown storage tag.
  {
    std::stringstream stream;
    io::write_pod(stream, io::kMagicBruteForce);
    io::write_pod(stream, io::kFormatVersionMutableStorage);
    io::write_string(stream, "l2");
    io::write_string(stream, "int4");
    EXPECT_THROW((void)load_index(stream), std::runtime_error);
  }
  // A store whose mode byte is garbage fails in read_quantized_store.
  {
    std::string bytes = raw_v4_bruteforce_bytes(X, quant::Storage::kInt8);
    std::stringstream prefix;
    io::write_pod(prefix, io::kMagicBruteForce);
    io::write_storage_header(prefix, "l2", "int8");
    io::write_matrix(prefix, X);
    bytes[prefix.str().size()] = 0x7F;  // first byte of the store's mode
    std::stringstream stream(bytes);
    EXPECT_THROW((void)load_index(stream), std::runtime_error);
  }
  // A store whose shape disagrees with the matrix (one row short) is
  // rejected instead of silently scanning the wrong geometry.
  {
    const Matrix<float> X_short = testutil::clustered_matrix(39, 4, 3, 75);
    std::stringstream stream;
    io::write_pod(stream, io::kMagicBruteForce);
    io::write_storage_header(stream, "l2", "int8");
    io::write_matrix(stream, X);
    io::write_quantized_store(stream,
                              quant::quantize(quant::Storage::kInt8, X_short));
    EXPECT_THROW((void)load_index(stream), std::runtime_error);
  }
}

TEST(CorruptFiles, TruncatedMutableDeltaAndTombstoneSectionsThrowCleanly) {
  // Version-3 streams append the delta rows, delta ids, and tombstone list
  // after the main section. Save the same logical index twice — once
  // compacted (clean tail) and once with a live delta + tombstones — so
  // every cut between the two lengths provably lands inside the mutation
  // sections, the exact bytes a crash mid-append would truncate.
  const Matrix<float> X = testutil::clustered_matrix(40, 6, 4, 55);
  IndexOptions options{.rbc = {.seed = 56}};
  options.max_delta = 64;  // keep the delta unmerged across save
  options.background_merge = false;

  auto index = make_index("bruteforce", options);
  index->build(X);
  Matrix<float> extra = testutil::random_matrix(5, 6, 57);
  index->insert(extra, std::vector<index_t>{100, 101, 102, 103, 104});
  EXPECT_EQ(index->remove(std::vector<index_t>{3, 17, 102}), 3u);
  ASSERT_GT(index->info().delta_rows, 0u);
  ASSERT_GT(index->info().tombstones, 0u);

  std::stringstream mutated_stream;
  index->save(mutated_stream);
  const std::string mutated = mutated_stream.str();
  index->compact();
  std::stringstream clean_stream;
  index->save(clean_stream);
  const std::size_t clean_size = clean_stream.str().size();
  ASSERT_GT(mutated.size(), clean_size);

  const std::size_t tail = mutated.size() - clean_size;
  for (const std::size_t cut :
       {clean_size, clean_size + tail / 4, clean_size + tail / 2,
        mutated.size() - 1}) {
    SCOPED_TRACE("truncated to " + std::to_string(cut) + " of " +
                 std::to_string(mutated.size()) + " bytes");
    std::stringstream stream(mutated.substr(0, cut));
    EXPECT_THROW((void)load_index(stream), std::runtime_error);
  }
  // The untruncated mutated stream still loads with its delta and
  // tombstones intact (the cuts above failed for the right reason).
  std::stringstream intact(mutated);
  // Removing delta-resident id 102 dropped its row in place; removing main
  // ids 3 and 17 tombstoned them — so the tail holds 4 delta rows + 2
  // tombstones.
  const auto restored = load_index(intact);
  EXPECT_EQ(restored->info().delta_rows, 4u);
  EXPECT_EQ(restored->info().tombstones, 2u);
  EXPECT_EQ(restored->info().size, 42u);
}

TEST(CorruptFiles, LegacyVersion1FilesLoadAsL2) {
  const Matrix<float> X = testutil::clustered_matrix(60, 5, 3, 53);
  const Matrix<float> Q = testutil::random_matrix(4, 5, 54);

  // Hand-written pre-metric bruteforce file: magic, version 1, matrix.
  {
    std::stringstream stream;
    io::write_pod(stream, io::kMagicBruteForce);
    io::write_pod(stream, io::kFormatVersion);
    io::write_matrix(stream, X);
    const auto index = load_index(stream);
    EXPECT_EQ(index->info().metric, "l2");
    EXPECT_EQ(index->info().size, X.rows());
    auto fresh = make_index("bruteforce");
    fresh->build(X);
    EXPECT_TRUE(testutil::knn_equal(
        fresh->knn_search({.queries = &Q, .k = 3}).knn,
        index->knn_search({.queries = &Q, .k = 3}).knn));
  }
  // Pre-metric kdtree file: magic, version 1, leaf_size, matrix.
  {
    std::stringstream stream;
    io::write_pod(stream, io::kMagicKdTree);
    io::write_pod(stream, io::kFormatVersion);
    io::write_pod(stream, index_t{16});
    io::write_matrix(stream, X);
    const auto index = load_index(stream);
    EXPECT_EQ(index->info().backend, "kdtree");
    EXPECT_EQ(index->info().metric, "l2");
  }
  // A concrete-class RbcExactIndex stream (its own version-1 format) must
  // still load through the wrapper's legacy rewind path as "l2".
  {
    RbcExactIndex<Euclidean> concrete;
    concrete.build(X, {.num_reps = 8, .seed = 5});
    std::stringstream stream;
    concrete.save(stream);
    const auto index = load_index(stream);
    EXPECT_EQ(index->info().backend, "rbc-exact");
    EXPECT_EQ(index->info().metric, "l2");
    auto fresh = make_index("bruteforce");
    fresh->build(X);
    EXPECT_TRUE(testutil::knn_equal(
        fresh->knn_search({.queries = &Q, .k = 3}).knn,
        index->knn_search({.queries = &Q, .k = 3}).knn));
  }
  // Pre-metric sharded header over modern inner streams: the composite's
  // legacy path defaults the metric to l2 and still validates the shards.
  {
    auto sharded = make_index("sharded:bruteforce", {.num_shards = 2});
    sharded->build(X);
    std::stringstream modern;
    sharded->save(modern);
    // Rewrite the header: magic + v1 (no metric tag), then splice the rest
    // of the modern stream (inner name onward) unchanged.
    const std::string bytes = modern.str();
    const std::size_t metric_header =
        sizeof(io::kMagicSharded) + sizeof(io::kFormatVersionMetric) +
        sizeof(std::uint64_t) + std::string("l2").size();
    std::stringstream legacy;
    io::write_pod(legacy, io::kMagicSharded);
    io::write_pod(legacy, io::kFormatVersion);
    legacy << bytes.substr(metric_header);
    const auto index = load_index(legacy);
    EXPECT_EQ(index->info().backend, "sharded:bruteforce");
    EXPECT_EQ(index->info().metric, "l2");
    EXPECT_EQ(index->info().size, X.rows());
  }
}

// --------------------------------------- mutable v3/v5 legacy fixtures --
// Versions 3 and 5 of the mutable format carry rows, not structure; they
// still load, by rebuilding the main structure from the saved rows.

/// A hand-written rbc-exact version-3 (storage "float32") or version-5
/// mutable stream: header, build knobs, main set, delta shard, tombstones.
std::string legacy_mutable_bytes(const std::string& storage,
                                 const IndexOptions& options,
                                 const Matrix<float>& main_rows,
                                 const std::vector<index_t>& delta_ids,
                                 const Matrix<float>& delta_rows,
                                 const std::vector<index_t>& tombs) {
  std::stringstream stream;
  io::write_pod(stream, io::kMagicExact);
  if (storage == "float32") {
    io::write_pod(stream, io::kFormatVersionMutable);
    io::write_string(stream, options.metric);
  } else {
    io::write_pod(stream, io::kFormatVersionMutableStorage);
    io::write_string(stream, options.metric);
    io::write_string(stream, storage);
  }
  const RbcParams& p = options.rbc;
  io::write_pod(stream, p.num_reps);
  io::write_pod(stream, p.points_per_rep);
  io::write_pod(stream, p.seed);
  io::write_pod(stream, static_cast<std::uint8_t>(p.sampling));
  io::write_pod(stream, static_cast<std::uint8_t>(p.use_overlap_rule));
  io::write_pod(stream, static_cast<std::uint8_t>(p.use_lemma_rule));
  io::write_pod(stream, static_cast<std::uint8_t>(p.use_early_exit));
  io::write_pod(stream, static_cast<std::uint8_t>(p.use_annulus_bound));
  io::write_pod(stream, p.approx_eps);
  io::write_pod(stream, p.num_probes);
  io::write_pod(stream, options.leaf_size);
  io::write_pod(stream, options.seed);
  io::write_pod(stream, main_rows.cols());
  std::vector<index_t> main_ids(main_rows.rows());
  for (index_t i = 0; i < main_rows.rows(); ++i) main_ids[i] = i;
  io::write_vec(stream, main_ids);
  io::write_matrix(stream, main_rows);
  io::write_vec(stream, delta_ids);
  io::write_matrix(stream, delta_rows);
  io::write_vec(stream, tombs);
  return stream.str();
}

TEST(CorruptFiles, MutableVersion3And5StreamsStillLoadByRebuilding) {
  const Matrix<float> X = testutil::clustered_matrix(90, 6, 4, 80);
  const Matrix<float> extra = testutil::random_matrix(2, 6, 81);
  const Matrix<float> Q = testutil::random_matrix(5, 6, 82);
  const std::vector<index_t> extra_ids{200, 201};
  const std::vector<index_t> tombs{4, 40};
  for (const std::string storage : {"float32", "int8"}) {
    SCOPED_TRACE(storage);
    IndexOptions options{.rbc = {.seed = 83}};
    options.storage = storage;
    options.background_merge = false;
    // The same logical index, built and mutated through the API.
    auto expected = make_index("rbc-exact", options);
    expected->build(X);
    expected->insert(extra, extra_ids);
    ASSERT_EQ(expected->remove(tombs), 2u);

    std::stringstream stream(
        legacy_mutable_bytes(storage, options, X, extra_ids, extra, tombs));
    const counters::Scope scope;
    const auto restored = load_index(stream);
    // No structure in the file: the load rebuilt it from the rows.
    EXPECT_GT(scope.delta(), 0u);
    EXPECT_EQ(restored->info().backend, "rbc-exact");
    EXPECT_EQ(restored->info().storage, storage);
    EXPECT_EQ(restored->info().delta_rows, 2u);
    EXPECT_EQ(restored->info().tombstones, 2u);
    EXPECT_EQ(restored->live_ids(), expected->live_ids());
    EXPECT_TRUE(testutil::knn_equal(
        expected->knn_search({.queries = &Q, .k = 4}).knn,
        restored->knn_search({.queries = &Q, .k = 4}).knn));
  }
}

// -------------------------------------- loaded RBC structure validation --
// A load trusts the saved structure instead of rebuilding it, so the raw
// RBC loaders check every field a search indexes with. Each fixture below
// patches one field of a real saved stream; the load must throw
// std::runtime_error (and stay clean under ASan/UBSan).

/// Loads `bytes` and expects a std::runtime_error whose message names
/// `reason` (so the fixture failed the check it targets, not another one).
void expect_rejected(const std::string& bytes, const std::string& reason) {
  std::stringstream stream(bytes);
  try {
    (void)load_index(stream);
    ADD_FAILURE() << "expected std::runtime_error naming '" << reason << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
        << e.what();
  }
}

template <class T>
std::string patched(std::string bytes, std::size_t at, T value) {
  std::memcpy(bytes.data() + at, &value, sizeof value);
  return bytes;
}

/// Field offsets of a concrete RbcExactIndex<Euclidean> stream starting at
/// `base` (layout of RbcExactIndex::save).
struct ExactLayout {
  ExactLayout(std::size_t base, index_t nr) {
    params = base + 4 + 4 + 8 + std::strlen(Euclidean::name()) + 4 + 4;
    psi = params + sizeof(RbcParams) + 8 + 4 * std::size_t{nr};
    offsets = psi + 8 + 4 * std::size_t{nr};
    packed_ids = offsets + 8 + 4 * (std::size_t{nr} + 1);
  }
  std::size_t params, psi, offsets, packed_ids;
};

/// The corruptions every exact-structure stream must reject, each paired
/// with the words its error names.
std::vector<std::pair<std::string, std::string>> corrupt_exact_fixtures(
    const std::string& bytes, std::size_t base, index_t nr, index_t n) {
  const ExactLayout at(base, nr);
  std::vector<std::pair<std::string, std::string>> fixtures;
  fixtures.emplace_back("CSR offsets",
                        patched(bytes, at.offsets + 8 + 4 * 3, n + 7));
  fixtures.emplace_back("packed id out of range",
                        patched(bytes, at.packed_ids + 8, n));
  fixtures.emplace_back(
      "flag byte 2",
      patched(bytes, at.params + offsetof(RbcParams, use_early_exit),
              std::uint8_t{2}));
  fixtures.emplace_back(
      "sampling mode 7",
      patched(bytes, at.params + offsetof(RbcParams, sampling),
              std::uint8_t{7}));
  float psi0 = 0.0f;
  std::memcpy(&psi0, bytes.data() + at.psi + 8, sizeof psi0);
  fixtures.emplace_back("list radius",
                        patched(bytes, at.psi + 8, psi0 + 1.0f));
  // One offset too many: a well-formed vector whose count disagrees with
  // the representative count (the rest of the stream is unchanged).
  std::vector<index_t> offsets(std::size_t{nr} + 1);
  std::memcpy(offsets.data(), bytes.data() + at.offsets + 8,
              offsets.size() * sizeof(index_t));
  offsets.push_back(n);
  std::stringstream longer;
  io::write_vec(longer, offsets);
  fixtures.emplace_back("offset counts disagree",
                        bytes.substr(0, at.offsets) + longer.str() +
                            bytes.substr(at.packed_ids));
  return fixtures;
}

TEST(CorruptFiles, CorruptRawExactStructureIsRejected) {
  const Matrix<float> X = testutil::clustered_matrix(60, 5, 3, 84);
  RbcExactIndex<Euclidean> concrete;
  concrete.build(X, {.num_reps = 8, .seed = 85});
  std::stringstream saved;
  concrete.save(saved);
  const std::string bytes = saved.str();
  {
    std::stringstream intact(bytes);
    EXPECT_NO_THROW((void)load_index(intact));
  }
  for (const auto& [reason, corrupt] :
       corrupt_exact_fixtures(bytes, 0, concrete.num_reps(), X.rows()))
    expect_rejected(corrupt, reason);
}

TEST(CorruptFiles, CorruptExactStructureInsideAVersion7StreamIsRejected) {
  const Matrix<float> X = testutil::clustered_matrix(60, 5, 3, 86);
  auto index = make_index("rbc-exact", {.rbc = {.num_reps = 8, .seed = 87}});
  index->build(X);
  std::stringstream saved;
  index->save(saved);
  const std::string bytes = saved.str();
  // The concrete stream inside: the exact magic followed by its own
  // version 1 (the mutable header carries 7, the backend header 2).
  std::string concrete_head(8, '\0');
  std::memcpy(concrete_head.data(), &io::kMagicExact, 4);
  std::memcpy(concrete_head.data() + 4, &io::kFormatVersion, 4);
  const std::size_t base = bytes.find(concrete_head);
  ASSERT_NE(base, std::string::npos);
  for (const auto& [reason, corrupt] :
       corrupt_exact_fixtures(bytes, base, 8, X.rows()))
    expect_rejected(corrupt, reason);
}

TEST(CorruptFiles, CorruptRawOneShotStructureIsRejected) {
  const Matrix<float> X = testutil::clustered_matrix(60, 5, 3, 88);
  RbcOneShotIndex<Euclidean> concrete;
  concrete.build(X, {.num_reps = 6, .points_per_rep = 10, .seed = 89});
  std::stringstream saved;
  concrete.save(saved);
  const std::string bytes = saved.str();
  {
    std::stringstream intact(bytes);
    EXPECT_NO_THROW((void)load_index(intact));
  }
  // Layout of RbcOneShotIndex::save: magic, version, metric name, n, dim,
  // s, params, rep ids, radii, packed ids, ...
  const std::size_t nr = concrete.num_reps();
  const std::size_t params =
      4 + 4 + 8 + std::strlen(Euclidean::name()) + 4 + 4 + 4;
  const std::size_t psi = params + sizeof(RbcParams) + 8 + 4 * nr;
  const std::size_t packed_ids = psi + 8 + 4 * nr;
  float psi0 = 0.0f;
  std::memcpy(&psi0, bytes.data() + psi + 8, sizeof psi0);
  const std::vector<std::pair<std::string, std::string>> fixtures{
      {"packed id out of range", patched(bytes, packed_ids + 8, X.rows())},
      {"flag byte 2",
       patched(bytes, params + offsetof(RbcParams, use_overlap_rule),
               std::uint8_t{2})},
      {"list radius", patched(bytes, psi + 8, psi0 * 0.5f)},
  };
  for (const auto& [reason, corrupt] : fixtures)
    expect_rejected(corrupt, reason);
}

TEST(CorruptFiles, Version7StreamWhoseStructureDisagreesIsRejected) {
  // The saved structure must describe the main set in the header: splice
  // the raw stream of a different-sized index after a valid main section.
  const Matrix<float> X = testutil::clustered_matrix(60, 5, 3, 90);
  auto index = make_index("bruteforce");
  index->build(X);
  std::stringstream saved;
  index->save(saved);
  const std::string bytes = saved.str();
  const std::size_t inner = bytes.find(bytes.substr(0, 4), 8);
  ASSERT_NE(inner, std::string::npos);
  auto other = make_index("bruteforce");
  other->build(testutil::clustered_matrix(59, 5, 3, 91));
  std::stringstream other_saved;
  other->save(other_saved);
  const std::string other_bytes = other_saved.str();
  const std::size_t other_inner =
      other_bytes.find(other_bytes.substr(0, 4), 8);
  ASSERT_NE(other_inner, std::string::npos);
  expect_rejected(bytes.substr(0, inner) + other_bytes.substr(other_inner),
                  "disagrees with the main set");
}

// ------------------------------------------ payload (v6) corrupt fixtures --
// The generic metric-space format: kMagicPayload, version 6, host backend
// tag, metric-space tag, RbcParams, then the serialized dataset (kind tag +
// store). Each fixture forges the bytes a bit-flip or torn write would
// produce and pins the clean runtime_error the loader must answer with.

/// Serialized bytes of a small payload index (strings under "edit").
std::string saved_payload_bytes(const std::string& backend) {
  std::vector<std::string> words;
  for (int i = 0; i < 40; ++i)
    words.push_back("word" + std::to_string(i % 13) + std::to_string(i));
  IndexOptions options{.rbc = {.seed = 58}, .num_shards = 3};
  options.metric = "edit";
  auto index = make_index(backend, options);
  index->build_payload(metricspace::make_string_dataset(std::move(words)));
  std::stringstream stream;
  index->save(stream);
  return stream.str();
}

/// The v6 header bytes up to (and excluding) the dataset payload.
void write_payload_header(std::ostream& os, const std::string& backend,
                          const std::string& metric) {
  io::write_pod(os, io::kMagicPayload);
  io::write_pod(os, io::kFormatVersionPayload);
  io::write_string(os, backend);
  io::write_string(os, metric);
  io::write_pod(os, RbcParams{});
}

TEST(CorruptFiles, PayloadTruncationAtEveryRegionThrowsCleanly) {
  for (const std::string backend :
       {"bruteforce", "rbc-exact", "rbc-oneshot", "sharded:rbc-exact"}) {
    const std::string bytes = saved_payload_bytes(backend);
    ASSERT_FALSE(bytes.empty()) << backend;
    for (const std::size_t cut :
         {std::size_t{0}, std::size_t{2}, std::size_t{7}, bytes.size() / 3,
          bytes.size() / 2, bytes.size() - 1}) {
      SCOPED_TRACE(backend + " truncated to " + std::to_string(cut) + " of " +
                   std::to_string(bytes.size()) + " bytes");
      std::stringstream stream(bytes.substr(0, cut));
      EXPECT_THROW((void)load_index(stream), std::runtime_error);
    }
    std::stringstream intact(bytes);
    const auto restored = load_index(intact);
    EXPECT_EQ(restored->info().backend, backend);
    EXPECT_EQ(restored->info().metric, "edit");
    EXPECT_TRUE(restored->info().payload) << backend;
  }
}

TEST(CorruptFiles, PayloadTableWithGarbageCountFailsBeforeAllocating) {
  // A corrupt item count must be rejected against the remaining stream
  // length (8 length-bytes per item is the floor) before the table is
  // allocated for it.
  std::stringstream stream;
  write_payload_header(stream, "bruteforce", "edit");
  io::write_string(stream, "strings");
  io::write_pod(stream, std::uint64_t{1} << 27);  // items that aren't there
  try {
    (void)load_index(stream);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("payload table"), std::string::npos)
        << "error should mention the payload table: " << e.what();
  }
  // A count beyond kMaxPayloadItems is rejected by the absolute cap even
  // if a huge stream could cover it.
  std::stringstream absurd;
  write_payload_header(absurd, "bruteforce", "edit");
  io::write_string(absurd, "strings");
  io::write_pod(absurd, std::uint64_t{1} << 40);
  EXPECT_THROW((void)load_index(absurd), std::runtime_error);
}

TEST(CorruptFiles, OversizedStringLengthIsRejectedAsCorruption) {
  // One stored string whose length field exceeds kMaxPayloadBytes: the
  // loader must refuse the allocation, naming the oversized length.
  std::stringstream stream;
  write_payload_header(stream, "bruteforce", "edit");
  io::write_string(stream, "strings");
  io::write_pod(stream, std::uint64_t{2});
  io::write_string(stream, "fine");
  io::write_pod(stream, metricspace::kMaxPayloadBytes + 1);  // length field
  stream << "x";
  try {
    (void)load_index(stream);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("oversized string length"),
              std::string::npos)
        << "error should mention the oversized length: " << e.what();
  }
}

TEST(CorruptFiles, PayloadStreamWithBadTagsIsRejected) {
  // Unknown metric-space tag: corruption, named in the error.
  {
    std::stringstream stream;
    write_payload_header(stream, "rbc-exact", "no-such-space");
    io::write_string(stream, "strings");
    io::write_pod(stream, std::uint64_t{0});
    try {
      (void)load_index(stream);
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("metric-space tag"),
                std::string::npos)
          << "error should mention the metric tag: " << e.what();
    }
  }
  // Unknown host-backend tag.
  {
    std::stringstream stream;
    write_payload_header(stream, "no-such-host", "edit");
    try {
      (void)load_index(stream);
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("backend tag"), std::string::npos)
          << "error should mention the backend tag: " << e.what();
    }
  }
  // Unknown dataset kind tag.
  {
    std::stringstream stream;
    write_payload_header(stream, "bruteforce", "edit");
    io::write_string(stream, "blobs");
    EXPECT_THROW((void)load_index(stream), std::runtime_error);
  }
  // A params bool byte of 2 is corruption, not a value copied into a bool.
  {
    const std::string bytes = saved_payload_bytes("rbc-exact");
    const std::size_t params = 4 + 4 + 8 + std::strlen("rbc-exact") + 8 +
                               std::strlen("edit");
    expect_rejected(
        patched(bytes, params + offsetof(RbcParams, use_lemma_rule),
                std::uint8_t{2}),
        "flag byte 2");
  }
  // A future payload version is rejected, not misparsed.
  {
    std::stringstream stream;
    io::write_pod(stream, io::kMagicPayload);
    io::write_pod(stream, std::uint32_t{7});
    EXPECT_THROW((void)load_index(stream), std::runtime_error);
  }
  // A dataset whose kind disagrees with the header's metric (a "graph"
  // store under "edit") is stream corruption — runtime_error, never the
  // factory's invalid_argument.
  {
    std::stringstream stream;
    write_payload_header(stream, "bruteforce", "edit");
    metricspace::make_graph_dataset(4, {{0, 1, 1.0f}, {1, 2, 1.0f},
                                        {2, 3, 1.0f}})
        ->save(stream);
    try {
      (void)load_index(stream);
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("corrupt payload stream"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CorruptFiles, FlippedMagicByteIsRejected) {
  const std::string bytes = saved_bytes("rbc-exact");
  ASSERT_FALSE(bytes.empty());
  std::string flipped = bytes;
  flipped[0] = static_cast<char>(flipped[0] ^ 0x5A);
  std::stringstream stream(flipped);
  EXPECT_THROW((void)load_index(stream), std::runtime_error);
}

// ------------------------------------------- atomic on-disk persistence --
// save_index's atomic-replace protocol (api/persist.hpp): `path` only ever
// holds a complete index — the previous good one or the new one — no
// matter where a failed or interrupted save lands.

/// An index whose save() writes a partial stream and then dies — the
/// worst-case serialization failure an atomic saver must contain.
class ExplodingSaveIndex : public Index {
 public:
  void build(const Matrix<float>&) override {}
  SearchResponse knn_search(const SearchRequest&) const override {
    throw std::runtime_error("not a real index");
  }
  IndexInfo info() const override { return {.backend = "exploding"}; }
  void save(std::ostream& os) const override {
    os << "half a file";
    throw std::runtime_error("disk on fire mid-serialize");
  }
};

TEST(CorruptFiles, SaveIndexRoundTripsThroughTheFilesystem) {
  const Matrix<float> X = testutil::clustered_matrix(120, 6, 4, 61);
  const Matrix<float> Q = testutil::random_matrix(5, 6, 62);
  const std::string path = ::testing::TempDir() + "atomic_roundtrip.rbc";
  std::remove(path.c_str());

  auto index = make_index("sharded:rbc-exact",
                          {.rbc = {.seed = 63}, .num_shards = 3});
  index->build(X);
  save_index(*index, path);

  // No intermediate file survives a successful save.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good()) << "stray " << path << ".tmp after save_index";

  const auto restored = load_index_file(path);
  EXPECT_EQ(restored->info().backend, "sharded:rbc-exact");
  EXPECT_TRUE(testutil::knn_equal(
      index->knn_search({.queries = &Q, .k = 4}).knn,
      restored->knn_search({.queries = &Q, .k = 4}).knn));
  std::remove(path.c_str());
}

TEST(CorruptFiles, FailedSavePreservesThePreviousGoodIndex) {
  const Matrix<float> X = testutil::clustered_matrix(90, 5, 3, 64);
  const Matrix<float> Q = testutil::random_matrix(4, 5, 65);
  const std::string path = ::testing::TempDir() + "atomic_failed_save.rbc";
  std::remove(path.c_str());

  auto good = make_index("bruteforce");
  good->build(X);
  save_index(*good, path);
  const KnnResult expected = good->knn_search({.queries = &Q, .k = 3}).knn;

  // A save that explodes mid-serialize must not touch `path` and must not
  // leave a tmp file behind.
  const ExplodingSaveIndex exploding;
  EXPECT_THROW(save_index(exploding, path), std::runtime_error);
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good()) << "stray tmp file after failed save";

  const auto survivor = load_index_file(path);
  EXPECT_TRUE(testutil::knn_equal(
      expected, survivor->knn_search({.queries = &Q, .k = 3}).knn));
  std::remove(path.c_str());
}

TEST(CorruptFiles, InterruptedWriteFixtureLeavesOldIndexLoadable) {
  // The crash save_index exists to survive: power dies after the tmp file
  // was partially written but before the rename. On restart, `path` must
  // still hold the complete previous index, and the next save must succeed
  // over the stale tmp.
  const Matrix<float> X = testutil::clustered_matrix(80, 4, 3, 66);
  const Matrix<float> Q = testutil::random_matrix(4, 4, 67);
  const std::string path = ::testing::TempDir() + "atomic_interrupted.rbc";
  std::remove(path.c_str());

  auto index = make_index("rbc-exact", {.rbc = {.seed = 68}});
  index->build(X);
  save_index(*index, path);

  // Forge the crash artifact: a truncated tmp exactly as an interrupted
  // writer would leave it.
  {
    std::stringstream full;
    index->save(full);
    std::ofstream stale(path + ".tmp", std::ios::binary);
    stale << full.str().substr(0, full.str().size() / 2);
  }

  // The published path is untouched by the dead tmp…
  const auto survivor = load_index_file(path);
  EXPECT_TRUE(testutil::knn_equal(
      index->knn_search({.queries = &Q, .k = 3}).knn,
      survivor->knn_search({.queries = &Q, .k = 3}).knn));
  // …the stale tmp itself is the torn file load_index rejects…
  EXPECT_THROW((void)load_index_file(path + ".tmp"), std::runtime_error);
  // …and the next save replaces both cleanly.
  save_index(*index, path);
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good()) << "stale tmp not cleaned by the next save";
  EXPECT_NO_THROW((void)load_index_file(path));
  std::remove(path.c_str());
}

TEST(CorruptFiles, LoadIndexFileReportsAMissingPath) {
  const std::string path = ::testing::TempDir() + "no_such_index.rbc";
  std::remove(path.c_str());
  try {
    (void)load_index_file(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "error should name the path: " << e.what();
  }
}

}  // namespace
}  // namespace rbc
