#include "equiv/schema_lint.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <set>

#include "equiv/symbolic.h"
#include "obs/advisor.h"

namespace uniqopt {
namespace equiv {
namespace {

std::string ColumnList(const TableDef& def, const std::vector<size_t>& cols) {
  std::string out = "(";
  for (size_t i = 0; i < cols.size(); ++i) {
    if (i) out += ", ";
    out += def.schema().column(cols[i]).name;
  }
  return out + ")";
}

std::string KeyDisplayName(const TableDef& def, const KeyConstraint& key) {
  if (!key.name.empty()) return key.name;
  return (key.kind == KeyKind::kPrimary ? "PRIMARY KEY " : "UNIQUE ") +
         ColumnList(def, key.columns);
}

void LintKeys(const TableDef& def, std::vector<SchemaLintFinding>* out) {
  const auto& keys = def.keys();
  for (size_t i = 0; i < keys.size(); ++i) {
    std::set<size_t> a(keys[i].columns.begin(), keys[i].columns.end());
    for (size_t j = 0; j < keys.size(); ++j) {
      if (i == j) continue;
      std::set<size_t> b(keys[j].columns.begin(), keys[j].columns.end());
      if (a == b) {
        if (i < j) {
          out->push_back({SchemaLintKind::kDuplicateKey, def.name(),
                          KeyDisplayName(def, keys[j]),
                          "declares the same column set " +
                              ColumnList(def, keys[j].columns) + " as " +
                              KeyDisplayName(def, keys[i])});
        }
        continue;
      }
      if (std::includes(a.begin(), a.end(), b.begin(), b.end())) {
        out->push_back({SchemaLintKind::kRedundantKey, def.name(),
                        KeyDisplayName(def, keys[i]),
                        "column set " + ColumnList(def, keys[i].columns) +
                            " contains key " +
                            KeyDisplayName(def, keys[j]) +
                            " — the wider key is implied and adds no "
                            "uniqueness"});
        break;  // one finding per redundant key is enough
      }
    }
  }
  for (const KeyConstraint& key : keys) {
    if (key.kind != KeyKind::kPrimary) continue;
    for (size_t kc : key.columns) {
      if (def.schema().column(kc).nullable) {
        out->push_back({SchemaLintKind::kNullableKeyColumn, def.name(),
                        def.schema().column(kc).name,
                        "PRIMARY KEY column " + def.schema().column(kc).name +
                            " is declared nullable — the implicit NOT NULL "
                            "half of the primary-key contract is missing"});
      }
    }
  }
}

void LintChecks(const TableDef& def, std::vector<SchemaLintFinding>* out) {
  size_t width = def.schema().num_columns();
  for (const CheckConstraint& check : def.checks()) {
    std::vector<size_t> cols;
    check.predicate->CollectColumns(&cols);
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    if (cols.size() != 1) continue;
    size_t ordinal = cols[0];
    if (ordinal >= width) continue;
    TestPointResult res = CheckExcludesPredicate(
        def, ordinal, check.predicate, ordinal, width, /*nullable=*/false);
    if (res != TestPointResult::kHolds) continue;
    const Column& col = def.schema().column(ordinal);
    std::string effect =
        col.nullable ? "the column can only ever hold NULL"
                     : "the NOT NULL column admits no value at all — the "
                       "table can hold no rows";
    out->push_back({SchemaLintKind::kUnsatisfiableCheck, def.name(),
                    check.name.empty() ? check.sql_text : check.name,
                    "no storable value of " + col.name +
                        " satisfies the CHECK; " + effect});
  }
}

void LintForeignKeys(const Catalog& catalog, const TableDef& def,
                     std::vector<SchemaLintFinding>* out) {
  for (const ForeignKeyConstraint& fk : def.foreign_keys()) {
    std::string fk_name = fk.name.empty() ? "FK -> " + fk.ref_table : fk.name;
    auto ref = catalog.GetTable(fk.ref_table);
    if (!ref.ok()) {
      out->push_back({SchemaLintKind::kDanglingForeignKey, def.name(),
                      fk_name,
                      "references unknown table " + fk.ref_table});
      continue;
    }
    const TableDef& rdef = *(*ref);
    if (fk.columns.size() != fk.ref_columns.size()) {
      out->push_back({SchemaLintKind::kDanglingForeignKey, def.name(),
                      fk_name, "source/target column counts differ"});
      continue;
    }
    Result<ResolvedForeignKey> resolved = ResolveForeignKey(fk, rdef);
    if (!resolved.ok()) {
      for (const std::string& rc : fk.ref_columns) {
        if (rdef.ColumnOrdinal(rc).ok()) continue;
        out->push_back({SchemaLintKind::kDanglingForeignKey, def.name(),
                        fk_name,
                        "references unknown column " + fk.ref_table + "." +
                            rc});
        break;
      }
      continue;
    }
    const std::vector<size_t>& refs = resolved->ref_ordinals;
    if (!resolved->key_index.has_value()) {
      out->push_back({SchemaLintKind::kDanglingForeignKey, def.name(),
                      fk_name,
                      "referenced columns " + ColumnList(rdef, refs) + " of " +
                          fk.ref_table +
                          " are not a declared candidate key — matches are "
                          "not guaranteed unique and join elimination "
                          "cannot fire"});
    }
    for (size_t j = 0; j < fk.columns.size(); ++j) {
      if (fk.columns[j] >= def.schema().num_columns()) continue;
      bool src_not_null = !def.schema().column(fk.columns[j]).nullable;
      bool ref_nullable = refs[j] < rdef.schema().num_columns() &&
                          rdef.schema().column(refs[j]).nullable;
      if (src_not_null && ref_nullable) {
        out->push_back(
            {SchemaLintKind::kNotNullFkConflict, def.name(), fk_name,
             "NOT NULL source column " +
                 def.schema().column(fk.columns[j]).name +
                 " references nullable key column " + fk.ref_table + "." +
                 rdef.schema().column(refs[j]).name +
                 " — rows with a NULL key can never be referenced; declare "
                 "the key column NOT NULL"});
      }
    }
  }
}

void LintCycles(const Catalog& catalog,
                std::vector<SchemaLintFinding>* out) {
  // Table-level FK graph; a cycle means the inclusion dependencies
  // compose into a loop. Each cycle is reported once, anchored at its
  // lexicographically smallest member.
  std::map<std::string, std::set<std::string>> edges;
  for (const std::string& name : catalog.TableNames()) {
    auto def = catalog.GetTable(name);
    if (!def.ok()) continue;
    for (const ForeignKeyConstraint& fk : (*def)->foreign_keys()) {
      if (catalog.HasTable(fk.ref_table)) {
        edges[(*def)->name()].insert(fk.ref_table);
      }
    }
  }
  std::set<std::string> reported;
  std::vector<std::string> stack;
  std::set<std::string> on_stack;
  std::set<std::string> done;
  std::function<void(const std::string&)> dfs = [&](const std::string& t) {
    stack.push_back(t);
    on_stack.insert(t);
    for (const std::string& next : edges[t]) {
      if (on_stack.count(next) != 0) {
        auto it = std::find(stack.begin(), stack.end(), next);
        std::vector<std::string> cycle(it, stack.end());
        std::string anchor = *std::min_element(cycle.begin(), cycle.end());
        std::string path;
        for (const std::string& n : cycle) path += n + " -> ";
        path += next;
        if (reported.insert(anchor + "|" + std::to_string(cycle.size()))
                .second) {
          out->push_back(
              {SchemaLintKind::kForeignKeyCycle, anchor, "",
               "referential cycle " + path +
                   "; with NOT NULL sources on every edge the inclusion "
                   "dependencies compose into mutual functional "
                   "dependencies, implying each source column set is an "
                   "undeclared candidate key"});
        }
        continue;
      }
      if (done.count(next) == 0) dfs(next);
    }
    on_stack.erase(t);
    stack.pop_back();
    done.insert(t);
  };
  for (const std::string& name : catalog.TableNames()) {
    auto def = catalog.GetTable(name);
    if (def.ok() && done.count((*def)->name()) == 0) {
      dfs((*def)->name());
    }
  }
}

std::string LowerName(SchemaLintKind kind) {
  std::string s = SchemaLintKindName(kind);
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

}  // namespace

const char* SchemaLintKindName(SchemaLintKind kind) {
  switch (kind) {
    case SchemaLintKind::kDuplicateKey:
      return "DUPLICATE_KEY";
    case SchemaLintKind::kRedundantKey:
      return "REDUNDANT_KEY";
    case SchemaLintKind::kNullableKeyColumn:
      return "NULLABLE_KEY_COLUMN";
    case SchemaLintKind::kNotNullFkConflict:
      return "NOT_NULL_FK_CONFLICT";
    case SchemaLintKind::kDanglingForeignKey:
      return "DANGLING_FOREIGN_KEY";
    case SchemaLintKind::kUnsatisfiableCheck:
      return "UNSATISFIABLE_CHECK";
    case SchemaLintKind::kForeignKeyCycle:
      return "FOREIGN_KEY_CYCLE";
  }
  return "UNKNOWN";
}

std::string SchemaLintFinding::ToString() const {
  std::string out = std::string(SchemaLintKindName(kind)) + " " + table;
  if (!object.empty()) out += " " + object;
  return out + ": " + detail;
}

std::vector<SchemaLintFinding> LintCatalog(const Catalog& catalog) {
  std::vector<SchemaLintFinding> findings;
  for (const std::string& name : catalog.TableNames()) {
    auto def = catalog.GetTable(name);
    if (!def.ok()) continue;
    LintKeys(*(*def), &findings);
    LintChecks(*(*def), &findings);
    LintForeignKeys(catalog, *(*def), &findings);
  }
  LintCycles(catalog, &findings);
  return findings;
}

size_t PublishSchemaFindings(const std::vector<SchemaLintFinding>& findings) {
  obs::AdvisorStore& store = obs::AdvisorStore::Global();
  size_t published = 0;
  for (const SchemaLintFinding& f : findings) {
    obs::NearMiss miss;
    miss.goal = "schema.lint." + LowerName(f.kind);
    miss.table = f.table;
    switch (f.kind) {
      case SchemaLintKind::kDuplicateKey:
      case SchemaLintKind::kRedundantKey:
        miss.kind = obs::MissingFactKind::kUniqueKey;
        break;
      case SchemaLintKind::kNullableKeyColumn:
      case SchemaLintKind::kNotNullFkConflict:
      case SchemaLintKind::kUnsatisfiableCheck:
        miss.kind = obs::MissingFactKind::kNotNull;
        break;
      case SchemaLintKind::kDanglingForeignKey:
      case SchemaLintKind::kForeignKeyCycle:
        miss.kind = obs::MissingFactKind::kFunctionalDependency;
        break;
    }
    miss.fact = f.object.empty() ? f.detail : f.object + ": " + f.detail;
    std::string sample = "-- schema lint: " + f.ToString();
    uint64_t fingerprint = std::hash<std::string>{}(miss.goal + "|" +
                                                    f.table + "|" + f.object);
    store.Record(miss, fingerprint, sample);
    ++published;
  }
  return published;
}

}  // namespace equiv
}  // namespace uniqopt
