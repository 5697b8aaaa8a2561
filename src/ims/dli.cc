#include "ims/dli.h"

#include "common/string_util.h"

namespace uniqopt {
namespace ims {

const char* DliStatusToString(DliStatus s) {
  switch (s) {
    case DliStatus::kOk:
      return "  ";
    case DliStatus::kNotFound:
      return "GE";
    case DliStatus::kEndOfDatabase:
      return "GB";
  }
  return "??";
}

std::string DliCallStats::ToString() const {
  std::string out = "GU=" + std::to_string(gu_calls) +
                    " GN=" + std::to_string(gn_calls) +
                    " GNP=" + std::to_string(gnp_calls) +
                    " visited=" + std::to_string(segments_visited);
  for (const auto& [seg, calls] : calls_by_segment) {
    out += " " + seg + "=" + std::to_string(calls);
  }
  return out;
}

bool DliSession::Matches(const Segment& seg, const Ssa& ssa) const {
  if (!ssa.qual.has_value()) return true;
  auto field = seg.type->FieldIndex(ssa.qual->field);
  if (!field.ok()) return false;
  const Value& actual = seg.fields[*field];
  if (actual.is_null() || ssa.qual->value.is_null()) return false;
  return CompareOpHolds(actual.Compare(ssa.qual->value), ssa.qual->op);
}

DliStatus DliSession::GU(const Ssa& root_ssa) {
  ++stats_.gu_calls;
  gu_counter_->Increment();
  ++stats_.calls_by_segment[ToUpperAscii(root_ssa.segment)];
  current_ = nullptr;
  parent_ = nullptr;
  gnp_cursor_ = nullptr;
  gnp_active_ = false;

  // Equality on the root key: HIDAM index lookup (one visit).
  const SegmentTypeDef& root_type = db_->def().root();
  if (root_ssa.qual.has_value() && root_ssa.qual->op == CompareOp::kEq &&
      EqualsIgnoreCase(root_ssa.qual->field,
                       root_type.fields[root_type.key_field].name)) {
    Segment* root = db_->FindRoot(root_ssa.qual->value);
    Visit();
    if (root == nullptr) return DliStatus::kNotFound;
    current_ = root;
    parent_ = root;
    return DliStatus::kOk;
  }

  for (Segment* root = db_->FirstRoot(); root != nullptr;
       root = db_->NextRoot(root)) {
    Visit();
    if (Matches(*root, root_ssa)) {
      current_ = root;
      parent_ = root;
      return DliStatus::kOk;
    }
  }
  return DliStatus::kNotFound;
}

DliStatus DliSession::GN(const Ssa& root_ssa) {
  ++stats_.gn_calls;
  gn_counter_->Increment();
  ++stats_.calls_by_segment[ToUpperAscii(root_ssa.segment)];
  if (parent_ == nullptr) return DliStatus::kEndOfDatabase;
  for (Segment* root = db_->NextRoot(parent_); root != nullptr;
       root = db_->NextRoot(root)) {
    Visit();
    if (Matches(*root, root_ssa)) {
      current_ = root;
      parent_ = root;
      gnp_cursor_ = nullptr;
      gnp_active_ = false;
      return DliStatus::kOk;
    }
  }
  current_ = nullptr;
  parent_ = nullptr;
  gnp_cursor_ = nullptr;
  gnp_active_ = false;
  return DliStatus::kEndOfDatabase;
}

DliStatus DliSession::GNP(const Ssa& child_ssa) {
  ++stats_.gnp_calls;
  gnp_counter_->Increment();
  ++stats_.calls_by_segment[ToUpperAscii(child_ssa.segment)];
  if (parent_ == nullptr) return DliStatus::kNotFound;

  auto type = db_->def().GetType(child_ssa.segment);
  if (!type.ok()) return DliStatus::kNotFound;
  auto ordinal = db_->def().TypeOrdinal(child_ssa.segment);
  if (!ordinal.ok()) return DliStatus::kNotFound;

  // Resume from the cursor when continuing the same child type;
  // otherwise start at the first child. An exhausted cursor (active but
  // null) keeps answering 'GE' until position is re-established.
  const Segment* cursor;
  if (gnp_active_ && EqualsIgnoreCase(gnp_type_, child_ssa.segment)) {
    cursor = gnp_cursor_;
  } else {
    cursor = parent_->first_child[*ordinal];
  }

  // Key-sequenced early halt: equality on the sequence field lets the
  // scan stop as soon as a greater key appears.
  const SegmentTypeDef& ctype = **type;
  bool key_equality =
      child_ssa.qual.has_value() && child_ssa.qual->op == CompareOp::kEq &&
      EqualsIgnoreCase(child_ssa.qual->field,
                       ctype.fields[ctype.key_field].name);

  while (cursor != nullptr) {
    Visit();
    if (key_equality) {
      int c = cursor->KeyValue().Compare(child_ssa.qual->value);
      if (c > 0) break;  // keys only grow from here: not found
      if (c == 0) {
        current_ = cursor;
        gnp_cursor_ = cursor->next_twin;
        gnp_active_ = true;
        gnp_type_ = child_ssa.segment;
        return DliStatus::kOk;
      }
    } else if (Matches(*cursor, child_ssa)) {
      current_ = cursor;
      gnp_cursor_ = cursor->next_twin;
      gnp_active_ = true;
      gnp_type_ = child_ssa.segment;
      return DliStatus::kOk;
    }
    cursor = cursor->next_twin;
  }
  gnp_cursor_ = nullptr;
  gnp_active_ = true;
  gnp_type_ = child_ssa.segment;
  return DliStatus::kNotFound;
}

}  // namespace ims
}  // namespace uniqopt
