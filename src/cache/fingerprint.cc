#include "cache/fingerprint.h"

#include <utility>
#include <vector>

#include "parser/lexer.h"

namespace uniqopt {
namespace cache {

namespace {

/// Canonical spelling of one token. Strings are re-quoted (with ''
/// escaping) so `'A'` the literal and `A` the identifier cannot
/// canonicalize to the same text.
std::string TokenSpelling(const Token& token) {
  switch (token.type) {
    case TokenType::kString: {
      std::string out = "'";
      for (char c : token.text) {
        out += c;
        if (c == '\'') out += '\'';
      }
      out += "'";
      return out;
    }
    case TokenType::kHostVar:
      return ":" + token.text;
    default:
      return token.text;
  }
}

bool IsLiteral(const Token& token) {
  return token.type == TokenType::kInteger ||
         token.type == TokenType::kDouble ||
         token.type == TokenType::kString;
}

}  // namespace

Result<CanonicalSql> CanonicalizeSql(std::string_view sql) {
  UNIQOPT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  CanonicalSql out;
  out.text.reserve(sql.size());
  out.shape.reserve(sql.size());
  for (const Token& token : tokens) {
    if (token.type == TokenType::kEndOfInput) break;
    if (!out.text.empty()) {
      out.text += ' ';
      out.shape += ' ';
    }
    std::string spelling = TokenSpelling(token);
    if (IsLiteral(token)) {
      ++out.num_literals;
      out.shape += '?';
    } else {
      out.shape += spelling;
    }
    out.text += spelling;
  }
  return out;
}

uint64_t FingerprintSql(const CanonicalSql& canonical,
                        uint64_t catalog_version,
                        const FingerprintOptions& options) {
  uint64_t h = Fnv1a(options.parameterize_literals ? canonical.shape
                                                   : canonical.text);
  h = Fnv1aMix(h, catalog_version);
  h = Fnv1aMix(h, options.salt);
  return h;
}

}  // namespace cache
}  // namespace uniqopt
