#ifndef UNIQOPT_CACHE_FINGERPRINT_H_
#define UNIQOPT_CACHE_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/hash.h"
#include "common/result.h"

namespace uniqopt {
namespace cache {

/// A SQL statement reduced to its canonical token stream. Two statements
/// that differ only in whitespace, identifier/keyword case, or `--`
/// comments canonicalize to the same `text`; statements that further
/// differ only in literal values share the same `shape`.
struct CanonicalSql {
  /// Canonical token stream with literals inline: identifiers upper-
  /// cased, single spaces, comments stripped, string literals quoted.
  std::string text;
  /// Same stream with every literal replaced by `?` — the statement's
  /// parameterized shape (host variables keep their names: they are
  /// already parameters and their names matter for binding).
  std::string shape;
  size_t num_literals = 0;
};

/// Tokenizes and canonicalizes `sql`. Fails exactly when the lexer
/// fails, so a statement that parses always canonicalizes. The
/// optimizer canonicalizes once per cold prepare, for the query-class
/// fingerprint and the advisor's replay sample; its plan cache keys on
/// the exact bytes instead (Optimizer::CacheKey) and never lexes a hit.
Result<CanonicalSql> CanonicalizeSql(std::string_view sql);

// The FNV-1a stream every fingerprint hashes with (common/hash.h).
using ::uniqopt::Fnv1a;
using ::uniqopt::Fnv1aMix;

struct FingerprintOptions {
  /// When set, the fingerprint hashes the parameterized `shape` instead
  /// of the literal-inclusive `text`, so statements differing only in
  /// literals collide deliberately. Only sound for consumers whose
  /// artifact is literal-independent (the query class, which the
  /// advisor and the time-series plane key on; a cached plan bakes
  /// constants in and must key on `text`).
  bool parameterize_literals = false;
  /// Extra salt folded into the key (a caller's mode flags, so one
  /// cache never serves an entry prepared under different modes).
  uint64_t salt = 0;
};

/// FNV-1a over the canonical statement combined with the catalog
/// version and the salt. The optimizer keys query classes with it
/// (`shape`, version 0: PreparedQuery::class_fingerprint), and
/// reqbench's traced replay keys its own plan cache with it (`text`,
/// the live version). Any DDL bumps the version, so every fingerprint
/// computed afterwards differs from every fingerprint computed before —
/// stale entries can never be served, even before they are purged.
uint64_t FingerprintSql(const CanonicalSql& canonical,
                        uint64_t catalog_version,
                        const FingerprintOptions& options = {});

}  // namespace cache
}  // namespace uniqopt

#endif  // UNIQOPT_CACHE_FINGERPRINT_H_
