#include "analysis/proof.h"

#include "common/string_util.h"

namespace uniqopt {

const char* ConjunctDispositionName(ConjunctDisposition d) {
  switch (d) {
    case ConjunctDisposition::kKeptType1:
      return "keep (Type 1)";
    case ConjunctDisposition::kKeptType2:
      return "keep (Type 2)";
    case ConjunctDisposition::kDeletedDisjunction:
      return "delete (disjunction)";
    case ConjunctDisposition::kDeletedNonEquality:
      return "delete (non-equality)";
    case ConjunctDisposition::kDeletedBySwitch:
      return "delete (switch off)";
  }
  return "?";
}

std::string ProofTrace::NameOf(size_t position) const {
  if (position < column_names.size() && !column_names[position].empty()) {
    return column_names[position];
  }
  return "col" + std::to_string(position);
}

namespace {

std::string NameSet(const std::vector<std::string>& names) {
  std::string out = "{";
  out += Join(names, ", ");
  out += "}";
  return out;
}

}  // namespace

std::string ProofTrace::ToText() const {
  if (!recorded) {
    return "no structured proof recorded for this verdict\n";
  }
  std::string out;
  out += "conjuncts:\n";
  if (conjuncts.empty()) out += "  (none)\n";
  for (const ProofConjunct& c : conjuncts) {
    out += "  " + std::string(ConjunctDispositionName(c.disposition)) + ": " +
           c.text + "\n";
  }
  out += "initially bound: " + NameSet(initially_bound) + "\n";
  out += "closure steps:\n";
  if (closure_steps.empty()) out += "  (none)\n";
  for (const ProofClosureStep& s : closure_steps) {
    out += "  + " + s.column_name + " via " + s.via +
           (s.round == 0 ? std::string(" (Type 1)")
                         : " (closure round " + std::to_string(s.round) + ")") +
           "\n";
  }
  out += "V = " + NameSet(closure) + "\n";
  out += "candidate keys:\n";
  if (keys.empty()) out += "  (none checked)\n";
  for (const ProofKeyOutcome& k : keys) {
    out += "  " + k.key_name + " of " + k.table;
    if (!k.alias.empty() && k.alias != k.table) out += " (" + k.alias + ")";
    out += " " + NameSet(k.key_columns);
    if (k.covered()) {
      out += ": covered\n";
    } else {
      out += ": NOT covered, missing " + NameSet(k.missing_columns) + "\n";
    }
  }
  out += "conclusion: " + conclusion + "\n";
  return out;
}

}  // namespace uniqopt
