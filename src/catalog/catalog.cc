#include "catalog/catalog.h"

#include <algorithm>

#include "common/string_util.h"

namespace uniqopt {

Status Catalog::AddTable(TableDef def) {
  std::string key = ToUpperAscii(def.name());
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table already exists: " + def.name());
  }
  // Validate inclusion dependencies: the referenced table must exist
  // (self-references allowed) and the referenced columns must form a
  // declared candidate key — otherwise the dependency cannot license
  // join elimination or be enforced cheaply.
  for (const ForeignKeyConstraint& fk : def.foreign_keys()) {
    const TableDef* ref = nullptr;
    if (fk.ref_table == key) {
      ref = &def;
    } else {
      auto it = tables_.find(fk.ref_table);
      if (it == tables_.end()) {
        return Status::NotFound("foreign key " + fk.name +
                                " references unknown table " + fk.ref_table);
      }
      ref = &it->second;
    }
    UNIQOPT_ASSIGN_OR_RETURN(ResolvedForeignKey resolved,
                             ResolveForeignKey(fk, *ref));
    if (!resolved.key_index.has_value()) {
      return Status::InvalidArgument(
          "foreign key " + fk.name + " must reference a candidate key of " +
          fk.ref_table);
    }
    // Type compatibility between referencing and referenced columns.
    for (size_t i = 0; i < fk.columns.size(); ++i) {
      if (!Value::Comparable(
              def.schema().column(fk.columns[i]).type,
              ref->schema().column(resolved.ref_ordinals[i]).type)) {
        return Status::InvalidArgument("foreign key " + fk.name +
                                       " column type mismatch");
      }
    }
  }
  order_.push_back(key);
  tables_.emplace(std::move(key), std::move(def));
  BumpVersion();
  return Status::OK();
}

Result<const TableDef*> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(ToUpperAscii(name));
  if (it == tables_.end()) {
    return Status::NotFound("table not found: " + name);
  }
  return &it->second;
}

Result<TableDef*> Catalog::GetTableMutable(const std::string& name) {
  auto it = tables_.find(ToUpperAscii(name));
  if (it == tables_.end()) {
    return Status::NotFound("table not found: " + name);
  }
  return &it->second;
}

bool Catalog::HasTable(const std::string& name) const {
  return tables_.count(ToUpperAscii(name)) > 0;
}

Status Catalog::DropTable(const std::string& name) {
  std::string key = ToUpperAscii(name);
  auto it = tables_.find(key);
  if (it == tables_.end()) {
    return Status::NotFound("table not found: " + name);
  }
  tables_.erase(it);
  order_.erase(std::remove(order_.begin(), order_.end(), key), order_.end());
  BumpVersion();
  return Status::OK();
}

std::vector<std::string> Catalog::TableNames() const { return order_; }

}  // namespace uniqopt
