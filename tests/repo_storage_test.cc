// Storage-backend contract tests (DESIGN.md §8): the mmap snapshot backend
// must be bit-identical to the in-memory oracle on every read — base image
// and dynamic overlay alike — and must refuse corrupt or mismatched
// snapshot files with a precise error instead of serving garbage.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/generator.h"
#include "datagen/profiles.h"
#include "pivot/pivot_selector.h"
#include "repo/mmap_snapshot_storage.h"
#include "repo/repository.h"
#include "repo/snapshot_format.h"
#include "repo/snapshot_writer.h"
#include "test_util.h"
#include "util/rng.h"

namespace terids {
namespace {

using testing_util::MakeHealthWorld;
using testing_util::ToyWorld;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Every read the RepoStorage interface offers, compared across backends.
void ExpectBitIdenticalReads(const Repository& oracle,
                             const Repository& snapshot) {
  ASSERT_EQ(oracle.num_attributes(), snapshot.num_attributes());
  ASSERT_EQ(oracle.num_samples(), snapshot.num_samples());
  ASSERT_EQ(oracle.has_pivots(), snapshot.has_pivots());
  const int d = oracle.num_attributes();

  for (int x = 0; x < d; ++x) {
    ASSERT_EQ(oracle.domain_size(x), snapshot.domain_size(x)) << "attr " << x;
    for (ValueId v = 0; v < oracle.domain_size(x); ++v) {
      EXPECT_TRUE(oracle.value_tokens(x, v) == snapshot.value_tokens(x, v));
      EXPECT_EQ(oracle.value_text(x, v), snapshot.value_text(x, v));
      EXPECT_EQ(oracle.value_frequency(x, v), snapshot.value_frequency(x, v));
      EXPECT_EQ(snapshot.FindValue(x, oracle.value_tokens(x, v)), v);
    }
    ASSERT_EQ(oracle.num_pivots(x), snapshot.num_pivots(x));
    for (int a = 0; a < oracle.num_pivots(x); ++a) {
      EXPECT_TRUE(oracle.pivot_tokens(x, a) == snapshot.pivot_tokens(x, a));
      for (ValueId v = 0; v < oracle.domain_size(x); ++v) {
        EXPECT_EQ(oracle.pivot_distance(x, a, v),
                  snapshot.pivot_distance(x, a, v));
      }
    }
  }

  for (size_t i = 0; i < oracle.num_samples(); ++i) {
    const Record& a = oracle.sample(i);
    const Record& b = snapshot.sample(i);
    EXPECT_EQ(a.rid, b.rid);
    EXPECT_EQ(a.stream_id, b.stream_id);
    EXPECT_EQ(a.timestamp, b.timestamp);
    ASSERT_EQ(a.values.size(), b.values.size());
    for (int x = 0; x < d; ++x) {
      EXPECT_EQ(a.values[x].missing, b.values[x].missing);
      EXPECT_EQ(a.values[x].text, b.values[x].text);
      EXPECT_TRUE(a.values[x].tokens == b.values[x].tokens);
      EXPECT_EQ(oracle.sample_value_id(i, x), snapshot.sample_value_id(i, x));
    }
  }

  // Range scans must agree element-for-element *in order* — the scan order
  // feeds deterministic candidate accumulation.
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const int x = static_cast<int>(rng.NextBounded(d));
    double lo = rng.NextDouble();
    double hi = rng.NextDouble();
    if (lo > hi) std::swap(lo, hi);
    const Interval band = Interval::Of(lo, hi);
    EXPECT_EQ(oracle.ValuesInCoordRange(x, band),
              snapshot.ValuesInCoordRange(x, band));
  }
  // Full-domain and empty-interval scans.
  for (int x = 0; x < d; ++x) {
    EXPECT_EQ(oracle.ValuesInCoordRange(x, Interval::Of(0.0, 1.0)),
              snapshot.ValuesInCoordRange(x, Interval::Of(0.0, 1.0)));
    EXPECT_TRUE(snapshot.ValuesInCoordRange(x, Interval::Empty()).empty());
  }
}

/// A generated dataset big enough to exercise multi-token values, shared
/// dictionaries, and non-trivial pivot geometry.
struct GeneratedWorld {
  GeneratedDataset dataset;
  std::unique_ptr<Repository> repo;
};

GeneratedWorld MakeGeneratedWorld() {
  GeneratedWorld world;
  DataGenerator::Options opts;
  opts.scale = 0.02;
  world.dataset = DataGenerator::Generate(CitationsProfile(), opts);
  world.repo = std::make_unique<Repository>(world.dataset.schema.get(),
                                            world.dataset.dict.get());
  for (const Record& r : world.dataset.repo_records) {
    TERIDS_CHECK(world.repo->AddSample(r).ok());
  }
  PivotSelector selector(world.repo.get(), PivotOptions{});
  world.repo->AttachPivots(selector.SelectAll());
  return world;
}

TEST(SnapshotStorageTest, RoundTripReadsAreBitIdentical) {
  GeneratedWorld world = MakeGeneratedWorld();
  const std::string path = TempPath("roundtrip.snap");
  ASSERT_TRUE(WriteRepositorySnapshot(*world.repo, path).ok());

  Result<std::unique_ptr<Repository>> reopened = Repository::OpenSnapshot(
      world.dataset.schema.get(), world.dataset.dict.get(), path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_STREQ((*reopened)->backend_name(), "mmap");
  EXPECT_STREQ(world.repo->backend_name(), "memory");
  ExpectBitIdenticalReads(*world.repo, **reopened);
  std::remove(path.c_str());
}

TEST(SnapshotStorageTest, MappingOutlivesFileRemoval) {
  ToyWorld world = MakeHealthWorld();
  const std::string path = TempPath("unlinked.snap");
  ASSERT_TRUE(WriteRepositorySnapshot(*world.repo, path).ok());
  Result<std::unique_ptr<Repository>> reopened = Repository::OpenSnapshot(
      world.schema.get(), world.dict.get(), path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // Experiment::BuildRepository removes the temp file immediately after
  // opening; the mapping must keep every page readable.
  std::remove(path.c_str());
  ExpectBitIdenticalReads(*world.repo, **reopened);
}

TEST(SnapshotStorageTest, WriterRequiresPivots) {
  ToyWorld world = MakeHealthWorld();
  Repository no_pivots(world.schema.get(), world.dict.get());
  const Status status =
      WriteRepositorySnapshot(no_pivots, TempPath("nopivots.snap"));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(SnapshotStorageTest, MissingFileIsNotFound) {
  ToyWorld world = MakeHealthWorld();
  Result<std::unique_ptr<Repository>> r = Repository::OpenSnapshot(
      world.schema.get(), world.dict.get(), TempPath("does-not-exist.snap"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = MakeHealthWorld();
    path_ = TempPath("corruption.snap");
    ASSERT_TRUE(WriteRepositorySnapshot(*world_.repo, path_).ok());
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    ASSERT_GT(bytes_.size(), sizeof(snapshot::Header));
  }

  void TearDown() override { std::remove(path_.c_str()); }

  Status Reopen(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    Result<std::unique_ptr<Repository>> r = Repository::OpenSnapshot(
        world_.schema.get(), world_.dict.get(), path_);
    return r.ok() ? Status::Ok() : r.status();
  }

  ToyWorld world_;
  std::string path_;
  std::string bytes_;
};

TEST_F(SnapshotCorruptionTest, FlippedPayloadByteFailsChecksum) {
  std::string corrupt = bytes_;
  corrupt[sizeof(snapshot::Header) + 11] ^= 0x40;
  const Status status = Reopen(corrupt);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("checksum"), std::string::npos)
      << status.ToString();
}

TEST_F(SnapshotCorruptionTest, TruncationIsRejected) {
  const Status status = Reopen(bytes_.substr(0, bytes_.size() - 9));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotCorruptionTest, BadMagicIsRejected) {
  std::string corrupt = bytes_;
  corrupt[0] = 'X';
  const Status status = Reopen(corrupt);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("magic"), std::string::npos);
}

TEST_F(SnapshotCorruptionTest, FutureVersionIsRejected) {
  std::string corrupt = bytes_;
  corrupt[8] = 99;  // Header.version low byte.
  const Status status = Reopen(corrupt);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("version"), std::string::npos);
}

// Version 1 (one monolithic payload under one checksum) is no longer read.
TEST_F(SnapshotCorruptionTest, Version1IsRejected) {
  std::string corrupt = bytes_;
  corrupt[8] = 1;  // Header.version low byte.
  const Status status = Reopen(corrupt);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("version 1 unsupported"), std::string::npos)
      << status.ToString();
}

TEST_F(SnapshotCorruptionTest, SchemaArityMismatchIsRejected) {
  Schema narrow(std::vector<std::string>{"a", "b"});
  Result<std::unique_ptr<Repository>> r =
      Repository::OpenSnapshot(&narrow, world_.dict.get(), path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SnapshotCorruptionTest, ForeignDictionaryIsRejected) {
  TokenDict tiny;  // Holds none of the snapshot's interned ids.
  Result<std::unique_ptr<Repository>> r =
      Repository::OpenSnapshot(world_.schema.get(), &tiny, path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// v2 per-section integrity + lazy first-touch decode (DESIGN.md §8).
// ---------------------------------------------------------------------------

/// Byte-surgery fixture over a v2 snapshot of the health world. The TOC
/// starts right after the header: a u64 section count, then SectionEntry
/// records. Helpers patch entries and re-stamp the checksums the open path
/// verifies, so each test corrupts exactly one integrity layer.
class SnapshotV2Test : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = MakeHealthWorld();
    path_ = TempPath("v2-lazy.snap");
    ASSERT_TRUE(WriteRepositorySnapshot(*world_.repo, path_).ok());
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    ASSERT_GT(bytes_.size(), sizeof(snapshot::Header));
    ASSERT_EQ(ReadU64(bytes_, 8) & 0xffffffffu, snapshot::kVersion);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  static uint64_t ReadU64(const std::string& bytes, size_t at) {
    uint64_t v = 0;
    std::memcpy(&v, bytes.data() + at, sizeof(v));
    return v;
  }

  static void WriteU64(std::string* bytes, size_t at, uint64_t v) {
    std::memcpy(&(*bytes)[at], &v, sizeof(v));
  }

  /// Byte offset (in the file) of TOC entry `i`.
  static size_t EntryAt(size_t i) {
    return sizeof(snapshot::Header) + sizeof(uint64_t) +
           i * sizeof(snapshot::SectionEntry);
  }

  /// Re-stamps header.payload_checksum after a deliberate TOC edit (in v2
  /// it covers exactly the TOC bytes), so the edit reaches the per-entry
  /// validation instead of tripping the TOC checksum first.
  static void RestampTocChecksum(std::string* bytes) {
    const uint64_t count = ReadU64(*bytes, sizeof(snapshot::Header));
    const size_t toc_bytes =
        sizeof(uint64_t) + count * sizeof(snapshot::SectionEntry);
    WriteU64(bytes, offsetof(snapshot::Header, payload_checksum),
             snapshot::Checksum(bytes->data() + sizeof(snapshot::Header),
                                toc_bytes));
  }

  void Rewrite(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  Result<std::unique_ptr<Repository>> Open(SnapshotDecode decode) {
    return Repository::OpenSnapshot(world_.schema.get(), world_.dict.get(),
                                    path_, decode);
  }

  /// The corruption shared by the eager/lazy detection pair: one flipped
  /// byte inside the body of the first domain section (attribute 0).
  std::string CorruptFirstDomainSection() {
    std::string corrupt = bytes_;
    const uint64_t offset =
        ReadU64(corrupt, EntryAt(0) + 2 * sizeof(uint64_t));
    corrupt[sizeof(snapshot::Header) + offset + 5] ^= 0x20;
    return corrupt;
  }

  ToyWorld world_;
  std::string path_;
  std::string bytes_;
};

TEST_F(SnapshotV2Test, EagerAndLazyServeIdenticalBytes) {
  for (SnapshotDecode decode :
       {SnapshotDecode::kEager, SnapshotDecode::kLazy}) {
    Result<std::unique_ptr<Repository>> reopened = Open(decode);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ExpectBitIdenticalReads(*world_.repo, **reopened);
  }
}

TEST_F(SnapshotV2Test, CorruptSectionBodyFailsEagerOpen) {
  Rewrite(CorruptFirstDomainSection());
  Result<std::unique_ptr<Repository>> r = Open(SnapshotDecode::kEager);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos)
      << r.status().ToString();
}

TEST_F(SnapshotV2Test, CorruptSectionBodyDiesOnFirstLazyTouch) {
  Rewrite(CorruptFirstDomainSection());
  // A lazy open validates only the header + TOC, so it must succeed...
  Result<std::unique_ptr<Repository>> r = Open(SnapshotDecode::kLazy);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // ...and TOC-aux metadata is served without decoding the bad section...
  EXPECT_EQ((*r)->domain_size(0), world_.repo->domain_size(0));
  EXPECT_EQ((*r)->num_samples(), world_.repo->num_samples());
  // ...but the first read into the section must die on its checksum, not
  // serve corrupt bytes.
  EXPECT_DEATH((*r)->value_tokens(0, 0), "checksum");
}

TEST_F(SnapshotV2Test, TocOffsetOutOfBoundsRejectedAtOpen) {
  std::string corrupt = bytes_;
  WriteU64(&corrupt, EntryAt(0) + 2 * sizeof(uint64_t), uint64_t{1} << 40);
  RestampTocChecksum(&corrupt);
  Rewrite(corrupt);
  for (SnapshotDecode decode :
       {SnapshotDecode::kEager, SnapshotDecode::kLazy}) {
    Result<std::unique_ptr<Repository>> r = Open(decode);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("out of bounds"), std::string::npos)
        << r.status().ToString();
  }
}

TEST_F(SnapshotV2Test, TruncationMidSectionRejectedAtOpen) {
  // Cut into the last section's body while keeping header.payload_bytes
  // consistent with the shortened file, so only the TOC bounds validation
  // stands between a lazy open and a wild read later.
  std::string corrupt = bytes_.substr(0, bytes_.size() - 16);
  WriteU64(&corrupt, offsetof(snapshot::Header, payload_bytes),
           corrupt.size() - sizeof(snapshot::Header));
  Rewrite(corrupt);
  Result<std::unique_ptr<Repository>> r = Open(SnapshotDecode::kLazy);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("out of bounds"), std::string::npos)
      << r.status().ToString();
}

TEST_F(SnapshotV2Test, ConcurrentFirstTouchServesConsistentBytes) {
  // Two threads race every lazily-decoded surface of a cold snapshot: the
  // once_flag-guarded decodes must produce one consistent image (this is
  // the TSan target for the first-touch path; see ci.yml).
  Result<std::unique_ptr<Repository>> r = Open(SnapshotDecode::kLazy);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Repository& snap = **r;
  const int d = snap.num_attributes();
  auto touch = [&]() {
    uint64_t sum = 0;
    for (int x = 0; x < d; ++x) {
      sum += snap.value_tokens(x, 0).size();
      sum += snap.FindValue(x, world_.repo->value_tokens(x, 0));
      sum += static_cast<uint64_t>(snap.value_frequency(x, 0));
      sum += snap.value_text(x, 0).size();
      for (int a = 0; a < snap.num_pivots(x); ++a) {
        sum += static_cast<uint64_t>(1e6 * snap.pivot_distance(x, a, 0));
        sum += snap.pivot_tokens(x, a).size();
      }
      sum += snap.ValuesInCoordRange(x, Interval::Of(0.0, 1.0)).size();
    }
    sum += static_cast<uint64_t>(snap.sample(0).rid);
    return sum;
  };
  uint64_t sums[2] = {0, 0};
  std::thread t0([&] { sums[0] = touch(); });
  std::thread t1([&] { sums[1] = touch(); });
  t0.join();
  t1.join();
  EXPECT_EQ(sums[0], sums[1]);
  ExpectBitIdenticalReads(*world_.repo, snap);
}

// ---------------------------------------------------------------------------
// Atomic write: a snapshot path either holds a complete snapshot or
// nothing; temp files never survive.
// ---------------------------------------------------------------------------

int CountTempSiblings(const std::string& target) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(target).parent_path();
  const std::string prefix = fs::path(target).filename().string() + ".tmp-";
  int n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

TEST(SnapshotWriterAtomicityTest, SuccessLeavesNoTempSibling) {
  ToyWorld world = MakeHealthWorld();
  const std::string path = TempPath("atomic-ok.snap");
  ASSERT_TRUE(WriteRepositorySnapshot(*world.repo, path).ok());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_EQ(CountTempSiblings(path), 0);
  std::remove(path.c_str());
}

TEST(SnapshotWriterAtomicityTest, FailedRenameUnlinksTemp) {
  ToyWorld world = MakeHealthWorld();
  // The target is an existing directory, so the final rename must fail
  // after the temp file was fully written — the error path has to unlink
  // it and leave the directory untouched.
  const std::string dir = TempPath("atomic-dir.snap");
  std::filesystem::create_directory(dir);
  const Status status = WriteRepositorySnapshot(*world.repo, dir);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(std::filesystem::is_directory(dir));
  EXPECT_EQ(CountTempSiblings(dir), 0);
  std::filesystem::remove_all(dir);
}

TEST(SnapshotWriterAtomicityTest, UnwritableTargetFailsCleanly) {
  ToyWorld world = MakeHealthWorld();
  const Status status = WriteRepositorySnapshot(
      *world.repo, TempPath("no-such-dir") + "/orphan.snap");
  EXPECT_FALSE(status.ok());
}

// ---------------------------------------------------------------------------
// Dynamic overlay: Section 5.5 writes after the snapshot was opened.
// ---------------------------------------------------------------------------

class SnapshotOverlayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = MakeHealthWorld();
    path_ = TempPath("overlay.snap");
    ASSERT_TRUE(WriteRepositorySnapshot(*world_.repo, path_).ok());
    Result<std::unique_ptr<Repository>> reopened = Repository::OpenSnapshot(
        world_.schema.get(), world_.dict.get(), path_);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    snapshot_ = std::move(reopened).value();
    std::remove(path_.c_str());
  }

  ToyWorld world_;
  std::string path_;
  std::unique_ptr<Repository> snapshot_;
};

TEST_F(SnapshotOverlayTest, RegisterValueMatchesOracle) {
  Tokenizer tok(world_.dict.get());
  const std::vector<std::string> texts = {
      "hypertension", "severe fever cough", "loss of weight", "eye drop"};
  for (const std::string& text : texts) {
    const TokenSet tokens = tok.Tokenize(text);
    const ValueId oracle_vid = world_.repo->RegisterValue(2, tokens, text);
    const ValueId snap_vid = snapshot_->RegisterValue(2, tokens, text);
    EXPECT_EQ(oracle_vid, snap_vid) << text;
  }
  ExpectBitIdenticalReads(*world_.repo, *snapshot_);
}

TEST_F(SnapshotOverlayTest, DuplicateRegisterValueIsANoOpOnBothSides) {
  Tokenizer tok(world_.dict.get());
  const TokenSet tokens = tok.Tokenize("hypertension");
  const ValueId first = snapshot_->RegisterValue(2, tokens, "hypertension");
  const size_t size_after_first = snapshot_->domain_size(2);
  EXPECT_EQ(snapshot_->RegisterValue(2, tokens, "other spelling"), first);
  EXPECT_EQ(snapshot_->domain_size(2), size_after_first);
  // Registering an existing *base* value must return the base id, not grow
  // the overlay.
  const TokenSet base = snapshot_->value_tokens(2, 0);
  EXPECT_EQ(snapshot_->RegisterValue(2, base, "dup"), 0u);
  EXPECT_EQ(snapshot_->domain_size(2), size_after_first);
}

TEST_F(SnapshotOverlayTest, AddSampleMatchesOracle) {
  // New samples bump base-value frequencies through the overlay delta and
  // introduce overlay values, samples, and coordinates on both sides.
  const std::vector<std::vector<std::string>> extra = {
      {"female", "thirst blurred vision", "diabetes", "dietary therapy"},
      {"male", "sore throat fever", "strep throat", "antibiotics"},
      {"female", "fever cough", "flu", "rest"},
  };
  for (size_t i = 0; i < extra.size(); ++i) {
    const Record r = world_.Make(static_cast<int64_t>(5000 + i), extra[i]);
    ASSERT_TRUE(world_.repo->AddSample(r).ok());
    ASSERT_TRUE(snapshot_->AddSample(r).ok());
  }
  ExpectBitIdenticalReads(*world_.repo, *snapshot_);
}

TEST_F(SnapshotOverlayTest, DomainAccessorIsInMemoryOnly) {
  EXPECT_DEATH(snapshot_->domain(0), "in-memory");
}

}  // namespace
}  // namespace terids
