#include "exec/index_exec.h"

#include <map>
#include <set>
#include <utility>

#include "expr/equality.h"
#include "expr/normalize.h"

namespace uniqopt {

namespace {

/// Coerces a probe value to the indexed column's type. The index stores
/// column-typed values, so an INTEGER literal probing a DOUBLE key (or
/// vice versa) must be converted before hashing. Returns nullopt when no
/// value of the column type can equal the probe (1.5 against an INTEGER
/// column, or 2^53 + 1, which no double holds, against a DOUBLE one) —
/// the lookup then matches nothing, which is exactly what the equivalent
/// filter would produce.
std::optional<Value> CoerceProbe(const Value& v, TypeId want) {
  if (v.is_null() || v.type() == want) return v;
  if (v.type() == TypeId::kInteger && want == TypeId::kDouble) {
    auto d = static_cast<double>(v.AsInteger());
    if (ExactInteger(d) == v.AsInteger()) return Value::Double(d);
    return std::nullopt;
  }
  if (v.type() == TypeId::kDouble && want == TypeId::kInteger) {
    if (std::optional<int64_t> i = ExactInteger(v.AsDouble())) {
      return Value::Integer(*i);
    }
    return std::nullopt;
  }
  return std::nullopt;
}

/// Which side of a left|right column split a conjunct reads.
enum class Side { kLeft, kRight, kBoth, kNone };

Side ClassifySide(const ExprPtr& conjunct, size_t left_width) {
  std::vector<size_t> cols;
  conjunct->CollectColumns(&cols);
  if (cols.empty()) return Side::kNone;
  bool any_left = false;
  bool any_right = false;
  for (size_t c : cols) {
    if (c < left_width) {
      any_left = true;
    } else {
      any_right = true;
    }
  }
  if (any_left && any_right) return Side::kBoth;
  return any_left ? Side::kLeft : Side::kRight;
}

/// An equi-join conjunct col_l = col_r crossing the split, if any.
bool ExtractEquiPair(const ExprPtr& conjunct, size_t left_width,
                     size_t* left_col, size_t* right_col) {
  EqualityAtom atom = ClassifyAtom(conjunct);
  if (atom.type != AtomType::kType2ColumnColumn) return false;
  size_t a = atom.column;
  size_t b = atom.other_column;
  if (a < left_width && b >= left_width) {
    *left_col = a;
    *right_col = b - left_width;
    return true;
  }
  if (b < left_width && a >= left_width) {
    *left_col = b;
    *right_col = a - left_width;
    return true;
  }
  return false;
}

/// Rebases a right-side-only conjunct from product coordinates into the
/// right input's own coordinates.
ExprPtr ShiftColumnsDown(const ExprPtr& expr, size_t left_width) {
  size_t max_col = expr->MaxColumnIndexPlusOne();
  std::vector<size_t> mapping(max_col, 0);
  for (size_t i = left_width; i < max_col; ++i) mapping[i] = i - left_width;
  return RemapColumns(expr, mapping);
}

}  // namespace

JoinSplit SplitJoinPredicate(const ExprPtr& predicate, size_t left_width,
                             const PhysicalOptions& options) {
  JoinSplit split;
  for (const ExprPtr& conj : FlattenAnd(predicate)) {
    size_t lc = 0;
    size_t rc = 0;
    if (options.join == PhysicalOptions::JoinStrategy::kHash &&
        ExtractEquiPair(conj, left_width, &lc, &rc)) {
      split.left_keys.push_back(lc);
      split.right_keys.push_back(rc);
      continue;
    }
    if (options.predicate_pushdown) {
      Side side = ClassifySide(conj, left_width);
      if (side == Side::kLeft) {
        split.left_only.push_back(conj);
        continue;
      }
      if (side == Side::kRight) {
        split.right_only.push_back(ShiftColumnsDown(conj, left_width));
        continue;
      }
    }
    split.residual.push_back(conj);
  }
  return split;
}

std::optional<IndexLookupMatch> MatchIndexLookup(const TableDef& def,
                                                 const ExprPtr& predicate) {
  if (!def.HasAnyKey() || predicate == nullptr) return std::nullopt;
  std::vector<ExprPtr> conjuncts = FlattenAnd(predicate);
  // First Type-1 atom per column wins; later duplicates stay residual.
  std::map<size_t, std::pair<IndexProbe, size_t>> by_column;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    EqualityAtom atom = ClassifyAtom(conjuncts[i]);
    if (atom.type != AtomType::kType1ColumnConstant) continue;
    IndexProbe probe;
    probe.constant = atom.constant;
    probe.host_var = atom.host_var;
    by_column.emplace(atom.column, std::make_pair(std::move(probe), i));
  }
  if (by_column.empty()) return std::nullopt;
  for (size_t k = 0; k < def.keys().size(); ++k) {
    const KeyConstraint& key = def.keys()[k];
    bool covered = true;
    for (size_t col : key.columns) {
      if (by_column.find(col) == by_column.end()) {
        covered = false;
        break;
      }
    }
    if (!covered) continue;
    IndexLookupMatch match;
    match.key_index = k;
    std::set<size_t> consumed;
    for (size_t col : key.columns) {
      const auto& entry = by_column.at(col);
      match.probes.push_back(entry.first);
      consumed.insert(entry.second);
    }
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (consumed.count(i) == 0) match.residual.push_back(conjuncts[i]);
    }
    return match;
  }
  return std::nullopt;
}

std::optional<Row> ProbeKey(const TableDef& def, size_t key_index,
                            std::vector<Value> values) {
  const std::vector<size_t>& columns = def.keys().at(key_index).columns;
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].is_null()) return std::nullopt;
    std::optional<Value> coerced =
        CoerceProbe(values[i], def.schema().column(columns[i]).type);
    if (!coerced.has_value()) return std::nullopt;
    values[i] = std::move(*coerced);
  }
  return Row(std::move(values));
}

std::optional<IndexJoinMatch> MatchUniqueIndexJoin(
    const TableDef& right_def, const std::vector<size_t>& left_keys,
    const std::vector<size_t>& right_keys) {
  if (right_keys.empty() || right_keys.size() != left_keys.size()) {
    return std::nullopt;
  }
  std::set<size_t> right_set(right_keys.begin(), right_keys.end());
  if (right_set.size() != right_keys.size()) return std::nullopt;
  for (size_t k = 0; k < right_def.keys().size(); ++k) {
    const KeyConstraint& key = right_def.keys()[k];
    if (key.columns.size() != right_set.size()) continue;
    std::set<size_t> key_set(key.columns.begin(), key.columns.end());
    if (key_set != right_set) continue;
    IndexJoinMatch match;
    match.key_index = k;
    for (size_t col : key.columns) {
      for (size_t i = 0; i < right_keys.size(); ++i) {
        if (right_keys[i] == col) {
          match.left_keys.push_back(left_keys[i]);
          break;
        }
      }
    }
    return match;
  }
  return std::nullopt;
}

std::string KeyDisplayName(const TableDef& def, size_t key_index) {
  const KeyConstraint& key = def.keys().at(key_index);
  if (!key.name.empty()) return key.name;
  std::string out = def.name() + "(";
  for (size_t i = 0; i < key.columns.size(); ++i) {
    if (i > 0) out += ",";
    out += def.schema().column(key.columns[i]).name;
  }
  out += ")";
  return out;
}

// ---------------------------------------------------------------------------
// IndexLookupOp

Status IndexLookupOp::Open(ExecContext* ctx) {
  match_.reset();
  snapshot_ = spec_.table->Snapshot();
  std::vector<Value> values;
  values.reserve(spec_.probes.size());
  for (const IndexProbe& probe : spec_.probes) {
    values.push_back(probe.Resolve(ctx->params));
  }
  std::optional<Row> key =
      ProbeKey(spec_.table->def(), spec_.key_index, std::move(values));
  if (!key.has_value()) return Status::OK();
  ctx->stats.index_probes++;
  std::optional<size_t> ordinal = snapshot_->Lookup(spec_.key_index, *key);
  if (!ordinal.has_value()) return Status::OK();
  const Row& row = snapshot_->rows[*ordinal];
  if (spec_.residual != nullptr &&
      spec_.residual->EvaluatePredicate(row, ctx->params) != Tribool::kTrue) {
    return Status::OK();
  }
  match_ = row;
  return Status::OK();
}

Result<bool> IndexLookupOp::Next(ExecContext* ctx, Row* row) {
  (void)ctx;
  if (!match_.has_value()) return false;
  *row = std::move(*match_);
  match_.reset();
  return true;
}

void IndexLookupOp::Close() { match_.reset(); }

// ---------------------------------------------------------------------------
// UniqueIndexJoinOp

Status UniqueIndexJoinOp::Open(ExecContext* ctx) {
  snapshot_ = spec_.right_table->Snapshot();
  probe_batch_ = RowBatch(ctx->batch_size > 0 ? ctx->batch_size
                                              : RowBatch::kDefaultBatchSize);
  return left_->Open(ctx);
}

const Row* UniqueIndexJoinOp::Match(const Row& left_row,
                                    ExecContext* ctx) const {
  const std::vector<size_t>& left_keys = spec_.left_keys;
  bool coerce = false;
  for (size_t i = 0; i < left_keys.size(); ++i) {
    const Value& v = left_row[left_keys[i]];
    if (v.is_null()) return nullptr;  // SQL `=` never matches NULL
    coerce |= v.type() != spec_.key_types[i];
  }
  std::optional<size_t> ordinal;
  if (coerce) {
    std::vector<Value> values;
    values.reserve(left_keys.size());
    for (size_t col : left_keys) values.push_back(left_row[col]);
    std::optional<Row> key = ProbeKey(spec_.right_table->def(),
                                      spec_.key_index, std::move(values));
    if (!key.has_value()) return nullptr;
    ctx->stats.index_probes++;
    ordinal = snapshot_->Lookup(spec_.key_index, *key);
  } else {
    ctx->stats.index_probes++;
    ordinal = snapshot_->LookupColumns(spec_.key_index, left_row, left_keys);
  }
  if (!ordinal.has_value()) return nullptr;
  const Row& right_row = snapshot_->rows[*ordinal];
  if (spec_.right_filter != nullptr &&
      spec_.right_filter->EvaluatePredicate(right_row, ctx->params) !=
          Tribool::kTrue) {
    return nullptr;
  }
  if (!ResidualHolds(spec_.residual, left_row, right_row, *ctx)) {
    return nullptr;
  }
  return &right_row;
}

Result<bool> UniqueIndexJoinOp::Next(ExecContext* ctx, Row* row) {
  Row left_row;
  while (true) {
    UNIQOPT_ASSIGN_OR_RETURN(bool more, left_->Next(ctx, &left_row));
    if (!more) return false;
    if (const Row* right_row = Match(left_row, ctx)) {
      *row = spec_.output.Make(left_row, *right_row);
      return true;
    }
  }
}

Result<bool> UniqueIndexJoinOp::NextBatch(ExecContext* ctx, RowBatch* out) {
  out->Reset();
  while (true) {
    UNIQOPT_ASSIGN_OR_RETURN(bool more,
                             left_->NextBatch(ctx, &probe_batch_));
    if (!more) return !out->empty();
    // Probe the whole batch before building any output row: the probes
    // are independent, so their cache misses overlap.
    matches_.resize(probe_batch_.size());
    for (size_t i = 0; i < probe_batch_.size(); ++i) {
      matches_[i] = Match(probe_batch_.row(i), ctx);
    }
    for (size_t i = 0; i < probe_batch_.size(); ++i) {
      if (matches_[i] != nullptr) {
        out->Append(spec_.output.Make(probe_batch_.row(i), *matches_[i]));
      }
    }
    if (!out->empty()) return true;  // else probe the next batch
  }
}

void UniqueIndexJoinOp::Close() { left_->Close(); }

}  // namespace uniqopt
