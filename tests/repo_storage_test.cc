// Storage-backend contract tests (DESIGN.md §8): the mmap snapshot backend
// must be bit-identical to the in-memory oracle on every read — base image
// and dynamic overlay alike — and must refuse corrupt or mismatched
// snapshot files with a precise error instead of serving garbage.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datagen/generator.h"
#include "datagen/profiles.h"
#include "pivot/pivot_selector.h"
#include "repo/in_memory_storage.h"
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

// Older layouts are no longer read: version 1 (one monolithic payload
// under one checksum) and version 2 (geometry sections that also carried
// sorted coordinate lists).
TEST_F(SnapshotCorruptionTest, OlderVersionsAreRejected) {
  for (const char version : {1, 2}) {
    std::string corrupt = bytes_;
    corrupt[8] = version;  // Header.version low byte.
    const Status status = Reopen(corrupt);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("version " + std::to_string(version) +
                                    " unsupported"),
              std::string::npos)
        << status.ToString();
  }
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
// Per-section integrity, all validated at open (DESIGN.md §8).
// ---------------------------------------------------------------------------

/// Byte-surgery fixture over a snapshot of the health world. The TOC
/// starts right after the header: a u64 section count, then SectionEntry
/// records. Helpers patch entries and re-stamp the checksums the open path
/// verifies, so each test corrupts exactly one integrity layer.
class SnapshotSectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = MakeHealthWorld();
    path_ = TempPath("sections.snap");
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

  /// Byte offset (in the file) of TOC entry `i`'s section body.
  static size_t SectionAt(const std::string& bytes, size_t i) {
    return sizeof(snapshot::Header) +
           ReadU64(bytes,
                   EntryAt(i) + offsetof(snapshot::SectionEntry, offset));
  }

  /// Re-stamps header.payload_checksum after a deliberate TOC edit (it
  /// covers exactly the TOC bytes), so the edit reaches the per-entry
  /// validation instead of tripping the TOC checksum first. A no-op when
  /// the (possibly mutated) TOC does not fit in the file.
  static void RestampTocChecksum(std::string* bytes) {
    if (bytes->size() < EntryAt(0)) return;
    const uint64_t count = ReadU64(*bytes, sizeof(snapshot::Header));
    if (count > (bytes->size() - EntryAt(0)) / sizeof(snapshot::SectionEntry)) {
      return;
    }
    const size_t toc_bytes =
        sizeof(uint64_t) + count * sizeof(snapshot::SectionEntry);
    WriteU64(bytes, offsetof(snapshot::Header, payload_checksum),
             snapshot::Checksum(bytes->data() + sizeof(snapshot::Header),
                                toc_bytes));
  }

  /// Re-stamps every TOC entry's section checksum that lies inside the
  /// file, then the TOC checksum, so a section-body edit reaches the
  /// section's parser instead of tripping its checksum.
  static void RestampChecksums(std::string* bytes) {
    if (bytes->size() >= EntryAt(0)) {
      const uint64_t count = ReadU64(*bytes, sizeof(snapshot::Header));
      const size_t payload_len = bytes->size() - sizeof(snapshot::Header);
      for (uint64_t i = 0; i < count && EntryAt(i + 1) <= bytes->size();
           ++i) {
        snapshot::SectionEntry e;
        std::memcpy(&e, bytes->data() + EntryAt(i), sizeof(e));
        if (e.offset > payload_len || e.bytes > payload_len - e.offset) {
          continue;
        }
        WriteU64(bytes,
                 EntryAt(i) + offsetof(snapshot::SectionEntry, checksum),
                 snapshot::Checksum(
                     bytes->data() + sizeof(snapshot::Header) + e.offset,
                     e.bytes));
      }
    }
    RestampTocChecksum(bytes);
  }

  void Rewrite(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  Result<std::unique_ptr<Repository>> Open() {
    return Repository::OpenSnapshot(world_.schema.get(), world_.dict.get(),
                                    path_);
  }

  /// One flipped byte inside the body of the first domain section
  /// (attribute 0).
  std::string CorruptFirstDomainSection() {
    std::string corrupt = bytes_;
    corrupt[SectionAt(corrupt, 0) + 5] ^= 0x20;
    return corrupt;
  }

  /// File offset of attribute 0's last pivot-distance column: the
  /// geometry section is (dom, np), then np distance columns.
  size_t LastDistanceColumnAt() const {
    const size_t dom = world_.repo->domain_size(0);
    const size_t np = static_cast<size_t>(world_.repo->num_pivots(0));
    return SectionAt(bytes_, GeometryEntry()) + 2 * sizeof(uint64_t) +
           (np - 1) * dom * sizeof(double);
  }
  size_t GeometryEntry() const {
    return static_cast<size_t>(world_.schema->num_attributes()) + 1;
  }

  ToyWorld world_;
  std::string path_;
  std::string bytes_;
};

TEST_F(SnapshotSectionTest, OpenServesIdenticalBytes) {
  Result<std::unique_ptr<Repository>> reopened = Open();
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectBitIdenticalReads(*world_.repo, **reopened);
}

TEST_F(SnapshotSectionTest, CorruptSectionBodyFailsOpen) {
  Rewrite(CorruptFirstDomainSection());
  Result<std::unique_ptr<Repository>> r = Open();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos)
      << r.status().ToString();
}

TEST_F(SnapshotSectionTest, RestampedCorruptSectionBodyFailsOpen) {
  // The same section with a token id past the dictionary and a valid
  // checksum: the domain parser, not FNV, must refuse it at open.
  std::string corrupt = bytes_;
  const size_t token_ids = SectionAt(corrupt, 0) + 2 * sizeof(uint64_t);
  std::memset(&corrupt[token_ids], 0xff, sizeof(Token));
  RestampChecksums(&corrupt);
  Rewrite(corrupt);
  Result<std::unique_ptr<Repository>> r = Open();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition)
      << r.status().ToString();
}

TEST_F(SnapshotSectionTest, GeometryDistanceOutsideUnitRangeRejectedAtOpen) {
  // 1.5 in attribute 0's last distance column: the [0, 1] range check
  // must refuse it.
  std::string corrupt = bytes_;
  const double bad = 1.5;
  std::memcpy(&corrupt[LastDistanceColumnAt()], &bad, sizeof(bad));
  RestampChecksums(&corrupt);
  Rewrite(corrupt);
  Result<std::unique_ptr<Repository>> r = Open();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("outside [0, 1]"), std::string::npos)
      << r.status().ToString();
}

TEST_F(SnapshotSectionTest, TocOffsetOutOfBoundsRejectedAtOpen) {
  std::string corrupt = bytes_;
  WriteU64(&corrupt, EntryAt(0) + 2 * sizeof(uint64_t), uint64_t{1} << 40);
  RestampTocChecksum(&corrupt);
  Rewrite(corrupt);
  Result<std::unique_ptr<Repository>> r = Open();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("out of bounds"), std::string::npos)
      << r.status().ToString();
}

TEST_F(SnapshotSectionTest, TruncationMidSectionRejectedAtOpen) {
  // Cut into the last section's body while keeping header.payload_bytes
  // consistent with the shortened file, so only the TOC bounds validation
  // stands between the open and a read past the mapping.
  std::string corrupt = bytes_.substr(0, bytes_.size() - 16);
  WriteU64(&corrupt, offsetof(snapshot::Header, payload_bytes),
           corrupt.size() - sizeof(snapshot::Header));
  Rewrite(corrupt);
  Result<std::unique_ptr<Repository>> r = Open();
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("out of bounds"), std::string::npos)
      << r.status().ToString();
}

/// Reads everything an opened snapshot serves, feeding every ValueId a
/// range scan returns back into the domain and geometry readers. Returns a
/// sum so the reads cannot be optimized away.
uint64_t ReadEverything(const RepoStorage& storage, int d) {
  uint64_t sum = 0;
  for (int x = 0; x < d; ++x) {
    const ValueId dom = static_cast<ValueId>(storage.domain_size(x));
    for (ValueId v = 0; v < dom; ++v) {
      const TokenSet& tokens = storage.value_tokens(x, v);
      sum += tokens.size() + storage.value_text(x, v).size();
      sum += static_cast<uint64_t>(storage.value_frequency(x, v));
      sum += storage.FindValue(x, tokens);
    }
    for (int a = 0; a < storage.num_pivots(x); ++a) {
      sum += storage.pivot_tokens(x, a).size();
      for (ValueId v = 0; v < dom; ++v) {
        sum += static_cast<uint64_t>(1e6 * storage.pivot_distance(x, a, v));
      }
    }
    for (const Interval& band :
         {Interval::Of(0.0, 1.0), Interval::Of(0.25, 0.75),
          Interval::Of(0.5, 0.5)}) {
      std::vector<ValueId> hits;
      storage.AppendValuesInCoordRange(x, band, &hits);
      for (ValueId v : hits) {
        sum += storage.value_tokens(x, v).size();
        sum += static_cast<uint64_t>(1e6 * storage.pivot_distance(x, 0, v));
      }
    }
  }
  for (size_t i = 0; i < storage.num_samples(); ++i) {
    const Record& r = storage.sample(i);
    // Unsigned sums: a mutated rid or timestamp may be any int64.
    sum += static_cast<uint64_t>(r.rid) + static_cast<uint64_t>(r.timestamp) +
           static_cast<uint64_t>(r.stream_id);
    for (int x = 0; x < d; ++x) {
      sum += r.values[x].tokens.size() + r.values[x].text.size();
      sum += storage.value_tokens(x, storage.sample_value_id(i, x)).size();
    }
  }
  return sum;
}

// Deterministic byte-mutation fuzz of Open: bit flips, u64 overwrites and
// truncations of the header/TOC and of the section bodies, with every
// checksum re-stamped so the mutation reaches the parsers. Each file must
// either fail to open with a Status or open and survive a full read
// sweep; an abort or a sanitizer report fails the test.
TEST_F(SnapshotSectionTest, ByteMutationsFailOpenOrReadCleanly) {
  const uint64_t count = ReadU64(bytes_, sizeof(snapshot::Header));
  const size_t toc_end = EntryAt(count);
  ASSERT_LT(toc_end, bytes_.size());
  Rng rng(20261019);
  int opened = 0;
  int refused = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string bytes = bytes_;
    const bool in_body = trial % 2 == 1;
    const size_t lo = in_body ? toc_end : 0;
    const size_t hi = in_body ? bytes.size() : toc_end;
    const size_t at = lo + rng.NextBounded(hi - lo);
    const size_t word = std::min(at / 8 * 8, bytes.size() - 8);
    switch ((trial / 2) % 5) {
      case 0:
        bytes[at] ^= static_cast<char>(1u << rng.NextBounded(8));
        break;
      case 1:
        WriteU64(&bytes, word, 0);
        break;
      case 2:
        WriteU64(&bytes, word, ~uint64_t{0});
        break;
      case 3:
        WriteU64(&bytes, word, bytes_.size());
        break;
      case 4:
        // Keep header.payload_bytes consistent with the cut, so the
        // truncation reaches the TOC and section bounds checks.
        bytes.resize(at);
        if (bytes.size() >= sizeof(snapshot::Header)) {
          WriteU64(&bytes, offsetof(snapshot::Header, payload_bytes),
                   bytes.size() - sizeof(snapshot::Header));
        }
        break;
    }
    RestampChecksums(&bytes);
    Rewrite(bytes);
    const int d = world_.schema->num_attributes();
    Result<std::unique_ptr<MmapSnapshotStorage>> r =
        MmapSnapshotStorage::Open(d, world_.dict.get(), path_);
    if (r.ok()) {
      ++opened;
      (void)ReadEverything(**r, d);
    } else {
      ++refused;
    }
  }
  // Both outcomes must occur, or the sweep is not exercising anything.
  EXPECT_GT(opened, 0);
  EXPECT_GT(refused, 0);
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

// ---------------------------------------------------------------------------
// Coordinate-range scan: the RepoStorage default body, on both backends,
// over base values and values registered after the build or open.
// ---------------------------------------------------------------------------

/// The health world rebuilt on one backend. The storage stays in view
/// because the range scan is a RepoStorage read the Repository facade does
/// not offer.
class CoordRangeScanTest : public ::testing::TestWithParam<RepoBackend> {
 protected:
  void SetUp() override {
    world_ = MakeHealthWorld();
    const int d = world_.schema->num_attributes();
    std::unique_ptr<RepoStorage> storage;
    if (GetParam() == RepoBackend::kInMemory) {
      storage = std::make_unique<InMemoryStorage>(d);
    } else {
      const std::string path = TempPath("coord-range.snap");
      ASSERT_TRUE(WriteRepositorySnapshot(*world_.repo, path).ok());
      Result<std::unique_ptr<MmapSnapshotStorage>> opened =
          MmapSnapshotStorage::Open(d, world_.dict.get(), path);
      std::remove(path.c_str());
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      storage = std::move(opened).value();
    }
    storage_ = storage.get();
    repo_ = std::make_unique<Repository>(world_.schema.get(),
                                         world_.dict.get(), std::move(storage));
    if (GetParam() == RepoBackend::kInMemory) {
      for (size_t i = 0; i < world_.repo->num_samples(); ++i) {
        ASSERT_TRUE(repo_->AddSample(world_.repo->sample(i)).ok());
      }
      std::vector<AttributePivots> pivots(static_cast<size_t>(d));
      for (int x = 0; x < d; ++x) {
        for (int a = 0; a < world_.repo->num_pivots(x); ++a) {
          pivots[x].pivots.push_back(world_.repo->pivot_tokens(x, a));
        }
      }
      repo_->AttachPivots(std::move(pivots));
    }
  }

  std::vector<ValueId> Scan(int x, const Interval& band) const {
    std::vector<ValueId> out;
    storage_->AppendValuesInCoordRange(x, band, &out);
    return out;
  }

  /// The domain values whose main-pivot distance lies in `band`, in
  /// ascending (distance, ValueId) order.
  std::vector<ValueId> BruteForce(int x, const Interval& band) const {
    std::vector<std::pair<double, ValueId>> hits;
    for (ValueId v = 0; v < repo_->domain_size(x); ++v) {
      const double coord = repo_->pivot_distance(x, 0, v);
      if (coord >= band.lo && coord <= band.hi) {
        hits.emplace_back(coord, v);
      }
    }
    std::sort(hits.begin(), hits.end());
    std::vector<ValueId> out;
    for (const auto& hit : hits) {
      out.push_back(hit.second);
    }
    return out;
  }

  ToyWorld world_;
  std::unique_ptr<Repository> repo_;
  const RepoStorage* storage_ = nullptr;
};

TEST_P(CoordRangeScanTest, MatchesBruteForce) {
  Tokenizer tok(world_.dict.get());
  const int d = repo_->num_attributes();
  for (int round = 0; round < 2; ++round) {
    if (round == 1) {
      // New values after the build or open: the overlay on mmap.
      for (const char* text : {"hypertension", "severe migraine", "fever",
                               "loss of weight thirst fatigue"}) {
        repo_->RegisterValue(2, tok.Tokenize(text), text);
      }
    }
    Rng rng(3);
    for (int trial = 0; trial < 50; ++trial) {
      const int x = static_cast<int>(rng.NextBounded(d));
      double lo = rng.NextDouble();
      double hi = rng.NextDouble();
      if (lo > hi) std::swap(lo, hi);
      const Interval band = Interval::Of(lo, hi);
      EXPECT_EQ(Scan(x, band), BruteForce(x, band)) << "round " << round;
    }
    for (int x = 0; x < d; ++x) {
      const std::vector<ValueId> all = Scan(x, Interval::Of(0.0, 1.0));
      EXPECT_EQ(all.size(), repo_->domain_size(x));
      EXPECT_EQ(all, BruteForce(x, Interval::Of(0.0, 1.0)));
      EXPECT_TRUE(Scan(x, Interval::Empty()).empty());
    }
  }
}

TEST_P(CoordRangeScanTest, EndpointsAreInclusiveHits) {
  Tokenizer tok(world_.dict.get());
  const ValueId added =
      repo_->RegisterValue(2, tok.Tokenize("hypertension"), "hypertension");
  for (const ValueId vid : {ValueId{0}, added}) {
    const double c = repo_->pivot_distance(2, 0, vid);
    auto contains = [&](const Interval& band) {
      const std::vector<ValueId> got = Scan(2, band);
      return std::find(got.begin(), got.end(), vid) != got.end();
    };
    // The value's exact coordinate at either endpoint is a hit...
    EXPECT_TRUE(contains(Interval::Of(c, c)));
    EXPECT_TRUE(contains(Interval::Of(0.0, c)));  // hit exactly at hi
    EXPECT_TRUE(contains(Interval::Of(c, 1.0)));  // hit exactly at lo
    // ...and one ulp past either endpoint is a miss.
    EXPECT_FALSE(contains(Interval::Of(0.0, std::nextafter(c, -1.0))));
    EXPECT_FALSE(contains(Interval::Of(std::nextafter(c, 2.0), 1.0)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, CoordRangeScanTest,
    ::testing::Values(RepoBackend::kInMemory, RepoBackend::kMmapSnapshot),
    [](const ::testing::TestParamInfo<RepoBackend>& info) {
      return std::string(RepoBackendName(info.param));
    });

}  // namespace
}  // namespace terids
