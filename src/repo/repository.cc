#include "repo/repository.h"

#include <utility>

#include "repo/in_memory_storage.h"
#include "repo/mmap_snapshot_storage.h"

namespace terids {

Repository::Repository(const Schema* schema, const TokenDict* dict)
    : Repository(schema, dict, nullptr) {}

Repository::Repository(const Schema* schema, const TokenDict* dict,
                       std::unique_ptr<RepoStorage> storage)
    : schema_(schema), dict_(dict), storage_(std::move(storage)) {
  TERIDS_CHECK(schema != nullptr);
  TERIDS_CHECK(dict != nullptr);
  if (storage_ == nullptr) {
    storage_ = std::make_unique<InMemoryStorage>(schema->num_attributes());
  }
  if (storage_->has_pivots()) {
    SetRowLayout();
  }
}

Result<std::unique_ptr<Repository>> Repository::OpenSnapshot(
    const Schema* schema, const TokenDict* dict, const std::string& path) {
  TERIDS_CHECK(schema != nullptr);
  TERIDS_CHECK(dict != nullptr);
  Result<std::unique_ptr<MmapSnapshotStorage>> storage =
      MmapSnapshotStorage::Open(schema->num_attributes(), dict, path);
  if (!storage.ok()) {
    return storage.status();
  }
  return std::make_unique<Repository>(schema, dict,
                                      std::move(storage).value());
}

Status Repository::AddSample(const Record& record) {
  if (record.num_attributes() != schema_->num_attributes()) {
    return Status::InvalidArgument("sample arity does not match schema");
  }
  if (!record.IsComplete()) {
    return Status::InvalidArgument(
        "repository samples must be complete tuples");
  }
  std::vector<ValueId> vids(record.values.size());
  for (int x = 0; x < record.num_attributes(); ++x) {
    const AttrValue& v = record.values[x];
    ValueId vid = RegisterValue(x, v.tokens, v.text);
    storage_->BumpFrequency(x, vid);
    vids[x] = vid;
  }
  storage_->AppendSample(record, std::move(vids));
  return Status::Ok();
}

ValueId Repository::RegisterValue(int attr, const TokenSet& tokens,
                                  const std::string& text) {
  TERIDS_CHECK(attr >= 0 && attr < num_attributes());
  return storage_->RegisterValue(attr, tokens, text);
}

const AttributeDomain& Repository::domain(int attr) const {
  const auto* in_memory = dynamic_cast<const InMemoryStorage*>(storage_.get());
  TERIDS_CHECK(in_memory != nullptr &&
               "Repository::domain is in-memory-backend-only; use the "
               "backend-neutral value accessors");
  return in_memory->domain(attr);
}

void Repository::AttachPivots(std::vector<AttributePivots> pivots) {
  TERIDS_CHECK(storage_->SupportsAttachPivots());
  TERIDS_CHECK(static_cast<int>(pivots.size()) == num_attributes());
  for (const AttributePivots& p : pivots) {
    TERIDS_CHECK(p.count() >= 1);
  }
  storage_->AttachPivots(std::move(pivots));
  SetRowLayout();
}

void Repository::SetRowLayout() {
  std::vector<int> pivot_counts(num_attributes());
  for (int x = 0; x < num_attributes(); ++x) {
    pivot_counts[x] = num_pivots(x);
  }
  row_layout_ = PairRowLayout(std::move(pivot_counts));
}

}  // namespace terids
