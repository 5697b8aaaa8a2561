#include "exec/join_hash_table.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

#include "index/unique_index.h"

namespace uniqopt {

bool HasNullKey(const Row& row, const std::vector<size_t>& columns) {
  for (size_t c : columns) {
    if (row[c].is_null()) return true;
  }
  return false;
}

namespace {

/// Empties `*c` and releases its storage (clear() would keep it).
template <typename Container>
void Release(Container* c) {
  Container().swap(*c);
}

}  // namespace

// ------------------------------------------------------------ JoinHashTable
Status JoinHashTable::Build(Operator* build, ExecContext* ctx) {
  Clear();
  UNIQOPT_RETURN_NOT_OK(build->Open(ctx));
  if (ctx->batch_size > 0) {
    RowBatch batch(ctx->batch_size);
    while (true) {
      UNIQOPT_ASSIGN_OR_RETURN(bool more, build->NextBatch(ctx, &batch));
      if (!more) break;
      if (batch.pin() != nullptr) {
        if (pins_.empty() || pins_.back() != batch.pin()) {
          pins_.push_back(batch.pin());
        }
        for (size_t i = 0; i < batch.size(); ++i) {
          if (!HasNullKey(batch.row(i), keys_)) Add(&batch.row(i));
        }
        continue;
      }
      for (size_t i = 0; i < batch.size(); ++i) {
        if (HasNullKey(batch.row(i), keys_)) continue;
        owned_.push_back(batch.TakeRow(i));
        Add(&owned_.back());
      }
    }
  } else {
    Row row;
    while (true) {
      UNIQOPT_ASSIGN_OR_RETURN(bool more, build->Next(ctx, &row));
      if (!more) break;
      if (HasNullKey(row, keys_)) continue;
      owned_.push_back(std::move(row));
      Add(&owned_.back());
    }
  }
  build->Close();
  if (rows_.size() >= kEnd) {
    return Status::InvalidArgument("hash join build side exceeds 2^32 rows");
  }
  Link();
  ctx->stats.hash_build_rows += rows_.size();
  return Status::OK();
}

void JoinHashTable::Add(const Row* row) {
  rows_.push_back(row);
  hashes_.push_back(UniqueIndex::HashOfColumns(*row, keys_));
}

void JoinHashTable::Link() {
  buckets_.assign(std::bit_ceil(std::max<size_t>(rows_.size(), 1)), kEnd);
  next_.resize(rows_.size());
  const uint64_t mask = buckets_.size() - 1;
  // Each row goes to the head of its chain, so rows of one key come out
  // latest first — the order of the std::unordered_multimap builds this
  // table replaced, which keeps downstream sorts' comparison counts.
  for (size_t i = 0; i < rows_.size(); ++i) {
    uint32_t& head = buckets_[hashes_[i] & mask];
    next_[i] = head;
    head = static_cast<uint32_t>(i);
  }
}

void JoinHashTable::Clear() {
  Release(&rows_);
  Release(&hashes_);
  Release(&next_);
  Release(&buckets_);
  Release(&owned_);
  Release(&pins_);
}

JoinHashTable::Matches JoinHashTable::Find(
    const Row& probe, const std::vector<size_t>& probe_keys) const {
  Matches m;
  m.table_ = this;
  m.probe_ = &probe;
  m.probe_keys_ = &probe_keys;
  if (buckets_.empty() || HasNullKey(probe, probe_keys)) return m;
  m.hash_ = UniqueIndex::HashOfColumns(probe, probe_keys);
  m.ordinal_ = Seek(buckets_[m.hash_ & (buckets_.size() - 1)], m);
  return m;
}

uint32_t JoinHashTable::Seek(uint32_t i, const Matches& m) const {
  for (; i != kEnd; i = next_[i]) {
    if (hashes_[i] != m.hash_) continue;
    const Row& row = *rows_[i];
    bool equal = true;
    for (size_t k = 0; k < keys_.size() && equal; ++k) {
      equal = row[keys_[k]].Compare((*m.probe_)[(*m.probe_keys_)[k]]) == 0;
    }
    if (equal) return i;
  }
  return kEnd;
}

size_t JoinHashTable::LongestChain() const {
  size_t longest = 0;
  for (uint32_t head : buckets_) {
    size_t length = 0;
    for (uint32_t i = head; i != kEnd; i = next_[i]) ++length;
    longest = std::max(longest, length);
  }
  return longest;
}

// ----------------------------------------------------------- JoinProjection
JoinProjection::JoinProjection(size_t left_width, size_t right_width,
                               std::vector<size_t> columns)
    : left_width_(left_width), columns_(std::move(columns)) {
  if (columns_.empty()) {
    columns_.resize(left_width + right_width);
    std::iota(columns_.begin(), columns_.end(), size_t{0});
  }
}

Schema JoinProjection::OutputSchema(const Schema& left, const Schema& right,
                                    const std::vector<size_t>& columns) {
  Schema all = Schema::Concat(left, right);
  if (columns.empty()) return all;
  return all.Project(columns);
}

Row JoinProjection::Make(const Row& probe, const Row& build) const {
  std::vector<Value> values;
  values.reserve(columns_.size());
  for (size_t c : columns_) {
    values.push_back(c < left_width_ ? probe[c] : build[c - left_width_]);
  }
  return Row(std::move(values));
}

bool ResidualHolds(const ExprPtr& residual, const Row& probe,
                   const Row& build, const ExecContext& ctx) {
  return residual == nullptr ||
         residual->EvaluatePredicate(Row::Concat(probe, build),
                                     ctx.params) == Tribool::kTrue;
}

}  // namespace uniqopt
