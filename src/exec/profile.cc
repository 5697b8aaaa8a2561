#include "exec/profile.h"

#include <chrono>

namespace uniqopt {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string FormatNs(uint64_t ns) {
  if (ns >= 1000000) {
    return std::to_string(ns / 1000000) + "." +
           std::to_string(ns / 100000 % 10) + "ms";
  }
  if (ns >= 1000) {
    return std::to_string(ns / 1000) + "." + std::to_string(ns / 100 % 10) +
           "us";
  }
  return std::to_string(ns) + "ns";
}

}  // namespace

size_t ExecProfile::Reserve(int depth) {
  OpProfile op;
  op.depth = depth;
  ops_.push_back(std::move(op));
  return ops_.size() - 1;
}

void ExecProfile::SetName(size_t slot, std::string name) {
  ops_.at(slot).name = std::move(name);
}

uint64_t ExecProfile::RowsIn(size_t slot) const {
  uint64_t rows = 0;
  int depth = ops_.at(slot).depth;
  for (size_t i = slot + 1; i < ops_.size() && ops_[i].depth > depth; ++i) {
    if (ops_[i].depth == depth + 1) rows += ops_[i].rows_out;
  }
  return rows;
}

uint64_t ExecProfile::SelfTimeNs(size_t slot) const {
  uint64_t children = 0;
  int depth = ops_.at(slot).depth;
  for (size_t i = slot + 1; i < ops_.size() && ops_[i].depth > depth; ++i) {
    if (ops_[i].depth == depth + 1) children += ops_[i].time_ns;
  }
  uint64_t total = ops_[slot].time_ns;
  return children > total ? 0 : total - children;
}

std::string ExecProfile::ToText() const {
  std::string out;
  for (size_t i = 0; i < ops_.size(); ++i) {
    const OpProfile& op = ops_[i];
    out += std::string(static_cast<size_t>(op.depth) * 2 + 2, ' ');
    out += op.name.empty() ? "(unnamed)" : op.name;
    out += "  rows_in=" + std::to_string(RowsIn(i));
    out += " rows_out=" + std::to_string(op.rows_out);
    out += " time=" + FormatNs(op.time_ns);
    out += " (self " + FormatNs(SelfTimeNs(i)) + ")";
    out += "\n";
  }
  return out;
}

ProfileOp::ProfileOp(OperatorPtr child, ExecProfile* profile, size_t slot)
    : Operator(&child->schema()),
      child_(std::move(child)),
      profile_(profile),
      slot_(slot) {}

Status ProfileOp::Open(ExecContext* ctx) {
  uint64_t start = NowNs();
  Status status = child_->Open(ctx);
  profile_->op(slot_).time_ns += NowNs() - start;
  return status;
}

Result<bool> ProfileOp::Next(ExecContext* ctx, Row* row) {
  uint64_t start = NowNs();
  Result<bool> produced = child_->Next(ctx, row);
  OpProfile& op = profile_->op(slot_);
  op.time_ns += NowNs() - start;
  ++op.next_calls;
  if (produced.ok() && *produced) ++op.rows_out;
  return produced;
}

Result<bool> ProfileOp::NextBatch(ExecContext* ctx, RowBatch* out) {
  uint64_t start = NowNs();
  Result<bool> produced = child_->NextBatch(ctx, out);
  OpProfile& op = profile_->op(slot_);
  op.time_ns += NowNs() - start;
  ++op.next_calls;
  if (produced.ok() && *produced) op.rows_out += out->size();
  return produced;
}

void ProfileOp::Close() {
  uint64_t start = NowNs();
  child_->Close();
  profile_->op(slot_).time_ns += NowNs() - start;
}

}  // namespace uniqopt
