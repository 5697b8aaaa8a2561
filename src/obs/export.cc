#include "obs/export.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>

namespace uniqopt {
namespace obs {

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string HexFingerprint(uint64_t fp) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::vector<MetricSample> SnapshotMetrics(const MetricsRegistry& registry) {
  std::vector<MetricSample> out;
  for (const auto& [name, value] : registry.Counters()) {
    MetricSample s;
    s.name = name;
    s.type = MetricSample::Type::kCounter;
    s.value = value;
    out.push_back(std::move(s));
  }
  for (const auto& [name, value] : registry.Gauges()) {
    MetricSample s;
    s.name = name;
    s.type = MetricSample::Type::kGauge;
    s.value = value;
    out.push_back(std::move(s));
  }
  for (const std::string& name : registry.HistogramNames()) {
    const Histogram* h = registry.FindHistogram(name);
    if (h == nullptr) continue;
    MetricSample s;
    s.name = name;
    s.type = MetricSample::Type::kHistogram;
    s.count = h->count();
    s.sum = h->sum();
    s.min = h->min();
    s.max = h->max();
    s.mean = h->mean();
    s.p50 = h->Quantile(0.5);
    s.p90 = h->Quantile(0.9);
    s.p99 = h->Quantile(0.99);
    s.buckets = h->CumulativeBuckets();
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

std::string PrometheusName(const std::string& name) {
  std::string out = CanonicalMetricName(name);
  for (char& c : out) {
    if (c == '.') c = '_';
  }
  return out;
}

std::string PrometheusLabelEscape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string PrometheusHelpEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string ToPrometheusText(const std::vector<MetricSample>& samples) {
  std::string out;
  for (const MetricSample& s : samples) {
    std::string pname = PrometheusName(s.name);
    if (s.type == MetricSample::Type::kCounter) {
      pname += "_total";
      out += "# HELP " + pname + " uniqopt counter " +
             PrometheusHelpEscape(s.name) + "\n";
      out += "# TYPE " + pname + " counter\n";
      out += pname + " " + std::to_string(s.value) + "\n";
    } else if (s.type == MetricSample::Type::kGauge) {
      out += "# HELP " + pname + " uniqopt gauge " +
             PrometheusHelpEscape(s.name) + "\n";
      out += "# TYPE " + pname + " gauge\n";
      out += pname + " " + std::to_string(s.value) + "\n";
    } else {
      out += "# HELP " + pname + " uniqopt histogram " +
             PrometheusHelpEscape(s.name) + "\n";
      out += "# TYPE " + pname + " histogram\n";
      for (const auto& [upper, cumulative] : s.buckets) {
        out += pname + "_bucket{le=\"" + std::to_string(upper) + "\"} " +
               std::to_string(cumulative) + "\n";
      }
      out += pname + "_bucket{le=\"+Inf\"} " + std::to_string(s.count) +
             "\n";
      out += pname + "_sum " + std::to_string(s.sum) + "\n";
      out += pname + "_count " + std::to_string(s.count) + "\n";
    }
  }
  return out;
}

std::string ToMetricsJson(const std::vector<MetricSample>& samples) {
  std::string out = "{\"metrics\": [";
  bool first = true;
  for (const MetricSample& s : samples) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"name\": \"" + JsonEscape(s.name) + "\", ";
    if (s.type == MetricSample::Type::kCounter ||
        s.type == MetricSample::Type::kGauge) {
      const char* type =
          s.type == MetricSample::Type::kCounter ? "counter" : "gauge";
      out += std::string("\"type\": \"") + type +
             "\", \"value\": " + std::to_string(s.value) + "}";
      continue;
    }
    out += "\"type\": \"histogram\", ";
    out += "\"count\": " + std::to_string(s.count) + ", ";
    out += "\"sum\": " + std::to_string(s.sum) + ", ";
    out += "\"min\": " + std::to_string(s.min) + ", ";
    out += "\"max\": " + std::to_string(s.max) + ", ";
    out += "\"mean\": " + FormatDouble(s.mean) + ", ";
    out += "\"p50\": " + std::to_string(s.p50) + ", ";
    out += "\"p90\": " + std::to_string(s.p90) + ", ";
    out += "\"p99\": " + std::to_string(s.p99) + ", ";
    out += "\"buckets\": [";
    bool bfirst = true;
    for (const auto& [upper, cumulative] : s.buckets) {
      if (!bfirst) out += ", ";
      bfirst = false;
      out += "{\"le\": " + std::to_string(upper) +
             ", \"count\": " + std::to_string(cumulative) + "}";
    }
    out += "]}";
  }
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Prometheus lint
// ---------------------------------------------------------------------------

namespace {

bool IsPrometheusLegalName(const std::string& name) {
  if (name.empty()) return false;
  auto legal_first = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':';
  };
  auto legal = [&](char c) {
    return legal_first(c) || std::isdigit(static_cast<unsigned char>(c));
  };
  if (!legal_first(name[0])) return false;
  for (char c : name) {
    if (!legal(c)) return false;
  }
  return true;
}

bool ParseNumber(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

struct HistogramLintState {
  uint64_t last_bucket = 0;
  bool saw_inf = false;
  uint64_t inf_count = 0;
  bool saw_sum = false;
  bool saw_count = false;
  uint64_t count_value = 0;
};

}  // namespace

Status LintPrometheusText(const std::string& text) {
  std::map<std::string, std::string> types;  // family -> type
  std::map<std::string, bool> helps;         // family -> HELP seen
  std::map<std::string, HistogramLintState> histograms;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    auto fail = [&](const std::string& why) {
      return Status::InvalidArgument("prometheus lint: line " +
                                     std::to_string(line_no) + ": " + why +
                                     ": " + line);
    };
    if (line.empty()) {
      if (pos > text.size()) break;
      continue;
    }
    if (line[0] == '#') {
      // "# TYPE name type" / "# HELP name text".
      if (line.rfind("# TYPE ", 0) == 0) {
        std::string rest = line.substr(7);
        size_t sp = rest.find(' ');
        if (sp == std::string::npos) return fail("malformed TYPE");
        std::string family = rest.substr(0, sp);
        std::string type = rest.substr(sp + 1);
        if (!IsPrometheusLegalName(family)) {
          return fail("illegal family name in TYPE");
        }
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          return fail("unknown metric type");
        }
        if (types.count(family) != 0) return fail("duplicate TYPE");
        types[family] = type;
      } else if (line.rfind("# HELP ", 0) == 0) {
        // "# HELP name text" (the text is optional and may use \\ and
        // \n escapes — only the family name is structural).
        std::string rest = line.substr(7);
        size_t sp = rest.find(' ');
        std::string family =
            sp == std::string::npos ? rest : rest.substr(0, sp);
        if (!IsPrometheusLegalName(family)) {
          return fail("illegal family name in HELP");
        }
        if (helps.count(family) != 0) return fail("duplicate HELP");
        helps[family] = true;
      } else {
        return fail("unknown comment directive");
      }
      continue;
    }
    // Sample: name[{labels}] value
    size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string::npos) return fail("no value");
    std::string name = line.substr(0, name_end);
    if (!IsPrometheusLegalName(name)) return fail("illegal metric name");
    std::string labels;
    size_t value_start;
    if (line[name_end] == '{') {
      // Escape-aware scan for the closing brace: a '}' inside a quoted
      // label value must not close the label set, and \" / \\ inside a
      // value must not terminate it.
      size_t close = std::string::npos;
      bool in_string = false;
      for (size_t i = name_end + 1; i < line.size(); ++i) {
        char c = line[i];
        if (in_string) {
          if (c == '\\') {
            ++i;  // skip the escaped character
          } else if (c == '"') {
            in_string = false;
          }
        } else if (c == '"') {
          in_string = true;
        } else if (c == '}') {
          close = i;
          break;
        }
      }
      if (close == std::string::npos) return fail("unterminated labels");
      labels = line.substr(name_end + 1, close - name_end - 1);
      if (close + 1 >= line.size() || line[close + 1] != ' ') {
        return fail("no value after labels");
      }
      value_start = close + 2;
    } else {
      value_start = name_end + 1;
    }
    double value = 0;
    if (!ParseNumber(line.substr(value_start), &value)) {
      return fail("non-numeric value");
    }
    // Resolve the declaring family: exact, or histogram series suffix.
    std::string family = name;
    std::string suffix;
    for (const char* sfx : {"_bucket", "_sum", "_count"}) {
      size_t n = std::string(sfx).size();
      if (name.size() > n && name.compare(name.size() - n, n, sfx) == 0) {
        std::string base = name.substr(0, name.size() - n);
        auto it = types.find(base);
        if (it != types.end() && it->second == "histogram") {
          family = base;
          suffix = sfx;
          break;
        }
      }
    }
    auto it = types.find(family);
    if (it == types.end()) return fail("sample without preceding TYPE");
    if (helps.count(family) == 0) {
      return fail("sample without preceding HELP");
    }
    if (it->second == "histogram") {
      HistogramLintState& st = histograms[family];
      if (suffix == "_bucket") {
        size_t le = labels.find("le=\"");
        if (le == std::string::npos) return fail("bucket without le label");
        // Escape-aware close-quote scan (a bound is numeric or +Inf, but
        // the lint must not mis-split on an escaped quote).
        size_t end = le + 4;
        while (end < labels.size() && labels[end] != '"') {
          if (labels[end] == '\\') ++end;
          ++end;
        }
        if (end >= labels.size()) return fail("unterminated le label");
        std::string bound = labels.substr(le + 4, end - le - 4);
        uint64_t cumulative = static_cast<uint64_t>(value);
        if (cumulative < st.last_bucket) {
          return fail("histogram buckets not cumulative");
        }
        st.last_bucket = cumulative;
        if (bound == "+Inf") {
          st.saw_inf = true;
          st.inf_count = cumulative;
        } else {
          double b = 0;
          if (!ParseNumber(bound, &b)) return fail("non-numeric le bound");
          if (st.saw_inf) return fail("bucket after +Inf");
        }
      } else if (suffix == "_sum") {
        st.saw_sum = true;
      } else if (suffix == "_count") {
        st.saw_count = true;
        st.count_value = static_cast<uint64_t>(value);
      } else {
        return fail("bare sample for histogram family");
      }
    }
  }
  for (const auto& [family, st] : histograms) {
    if (!st.saw_inf) {
      return Status::InvalidArgument("prometheus lint: histogram " + family +
                                     " missing +Inf bucket");
    }
    if (!st.saw_sum || !st.saw_count) {
      return Status::InvalidArgument("prometheus lint: histogram " + family +
                                     " missing _sum/_count");
    }
    if (st.inf_count != st.count_value) {
      return Status::InvalidArgument("prometheus lint: histogram " + family +
                                     " +Inf bucket != _count");
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Minimal JSON validator
// ---------------------------------------------------------------------------

namespace {

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  Status Check() {
    SkipWs();
    Status st = Value();
    if (!st.ok()) return st;
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing content");
    return Status::OK();
  }

 private:
  Status Fail(const std::string& why) {
    return Status::InvalidArgument("json: " + why + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Peek(char c) { return pos_ < text_.size() && text_[pos_] == c; }

  Status Value() {
    if (pos_ >= text_.size()) return Fail("unexpected end");
    char c = text_[pos_];
    if (c == '{') return Object();
    if (c == '[') return Array();
    if (c == '"') return String();
    if (c == '-' || (c >= '0' && c <= '9')) return Number();
    for (const char* lit : {"true", "false", "null"}) {
      size_t n = std::string(lit).size();
      if (text_.compare(pos_, n, lit) == 0) {
        pos_ += n;
        return Status::OK();
      }
    }
    return Fail("unexpected character");
  }

  Status Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek('}')) {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      SkipWs();
      if (!Peek('"')) return Fail("expected object key");
      Status st = String();
      if (!st.ok()) return st;
      SkipWs();
      if (!Peek(':')) return Fail("expected ':'");
      ++pos_;
      SkipWs();
      st = Value();
      if (!st.ok()) return st;
      SkipWs();
      if (Peek(',')) {
        ++pos_;
        continue;
      }
      if (Peek('}')) {
        ++pos_;
        return Status::OK();
      }
      return Fail("expected ',' or '}'");
    }
  }

  Status Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek(']')) {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      SkipWs();
      Status st = Value();
      if (!st.ok()) return st;
      SkipWs();
      if (Peek(',')) {
        ++pos_;
        continue;
      }
      if (Peek(']')) {
        ++pos_;
        return Status::OK();
      }
      return Fail("expected ',' or ']'");
    }
  }

  Status String() {
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("raw control character in string");
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return Fail("truncated escape");
        char e = text_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return Fail("bad \\u escape");
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return Fail("bad escape");
        }
      }
      ++pos_;
    }
    return Fail("unterminated string");
  }

  Status Number() {
    size_t start = pos_;
    if (Peek('-')) ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double v = 0;
    if (!ParseNumber(text_.substr(start, pos_ - start), &v)) {
      return Fail("malformed number");
    }
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Status ValidateJson(const std::string& text) {
  return JsonChecker(text).Check();
}

}  // namespace obs
}  // namespace uniqopt
