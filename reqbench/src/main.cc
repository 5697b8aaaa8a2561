// reqbench: request-level benchmark of the uniqopt facade.
//
//   reqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--tiny] [--corrupt-oracle] [--trace-out <path>]
//
// --trace 0 runs the workload's closed loop (one client thread) through
// Optimizer::PrepareShared → Optimizer::Execute and
// txn::DmlExecutor::ExecuteSql and reports the end-to-end metrics.
// --trace 1 runs the same loop for half the time (registry deltas), then
// runs the same stream again, each request once layer by layer with one
// span per layer call and once through the facade, and reports the
// per-layer metrics. The last line of stdout is one JSON object.
// See README.md for the workloads and the metric definitions.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/fingerprint.h"
#include "obs/metrics.h"
#include "replay.h"
#include "span_log.h"
#include "workloads.h"

namespace reqbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool tiny = false;
  bool corrupt_oracle = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) {
        *error = flag + " needs a value";
        return false;
      }
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (flag == "--tiny") {
      args->tiny = true;
    } else if (flag == "--corrupt-oracle") {
      args->corrupt_oracle = true;
    } else if (flag == "--workload") {
      if (!value(&args->workload)) return false;
    } else if (flag == "--trace-out") {
      if (!value(&args->trace_out)) return false;
    } else if (flag == "--seed" || flag == "--seconds" || flag == "--trace") {
      if (!value(&v)) return false;
      char* end = nullptr;
      const double number = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || number < 0) {
        *error = "bad value for " + flag + ": " + v;
        return false;
      }
      if (flag == "--seed") {
        args->seed = std::strtoull(v.c_str(), nullptr, 10);
        have_seed = true;
      } else if (flag == "--seconds") {
        args->seconds = number;
      } else {
        args->trace = static_cast<int>(number);
      }
    } else {
      *error = "unknown argument: " + flag;
      return false;
    }
  }
  if (args->workload.empty() || !have_seed || args->seconds <= 0 ||
      (args->trace != 0 && args->trace != 1)) {
    *error =
        "usage: reqbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--tiny] [--corrupt-oracle] [--trace-out <path>]";
    return false;
  }
  return true;
}

std::string Num(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

/// Nearest-rank quantile of unsorted samples (0 when empty).
template <typename T>
double Quantile(std::vector<T> samples, double q) {
  if (samples.empty()) return 0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(samples.size()));
  if (rank >= samples.size()) rank = samples.size() - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(rank),
                   samples.end());
  return static_cast<double>(samples[rank]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintMetric(const Metric& m) {
  std::printf("metric %-40s %s %s\n", m.name.c_str(), Num(m.value).c_str(),
              m.unit.c_str());
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

uint64_t RequestDigest(uint64_t h, const Request& r) {
  h = uniqopt::cache::Fnv1aMix(h, static_cast<uint64_t>(r.op));
  h = uniqopt::cache::Fnv1a(r.sql, h);
  for (const auto& [name, value] : r.params) {
    h = uniqopt::cache::Fnv1a(name + "=" + value.ToString(), h);
  }
  return h;
}

constexpr uint64_t kDigestBasis = UINT64_C(0xcbf29ce484222325);
constexpr size_t kDigestPrefix = 4096;

/// One read's latency, kept for the quantiles.
struct ReadSample {
  uint32_t ns;      // clamped to about 4.3 s
  uint16_t window;  // index into LoopTotals::windows
  uint8_t query_class;
};

/// At most this many read samples are kept. When they are full every
/// other one is dropped and from then on only every second read is kept,
/// and so on, so the samples stay an evenly spread subset of the run. The
/// buffer is written in full when the loop starts, so the memory it takes
/// (which peak_rss_mb sees) is the same in every run whatever the
/// throughput.
constexpr size_t kMaxReadSamples = size_t{1} << 16;

/// Everything the closed loop measured.
struct LoopTotals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t hits = 0;
  uint64_t busy_ns = 0;             // sum of request latencies
  uint64_t prepare_hit_ns = 0;      // PrepareShared time on hits
  uint64_t execute_ns = 0;          // Optimizer::Execute time
  uint64_t elapsed_ns = 0;          // wall time of the loop
  uint64_t cpu_ns = 0;              // process CPU time during the loop
  uint64_t digest = kDigestBasis;   // of every request run
  uint64_t read_stride = 1;         // every read_stride-th read is sampled
  size_t read_kept = 0;             // samples in use at the front
  std::vector<ReadSample> read_samples =
      std::vector<ReadSample>(kMaxReadSamples);
  std::vector<uint64_t> write_ns;
  std::map<Op, std::vector<uint64_t>> op_write_ns;
  /// The loop cut into equal 100 ms windows, by request start.
  struct Window {
    uint64_t requests = 0;
    uint64_t busy_ns = 0;
    int clock_probes = 0;
    double clock_ghz = 0;  // the faster of the window's two probes
  };
  std::vector<Window> windows;
  std::vector<std::string> failures;

  void SampleRead(uint64_t latency_ns, size_t window, int query_class) {
    if ((reads - 1) % read_stride != 0) return;
    if (read_kept == kMaxReadSamples) {
      for (size_t i = 0; i < kMaxReadSamples / 2; ++i) {
        read_samples[i] = read_samples[2 * i];
      }
      read_kept = kMaxReadSamples / 2;
      read_stride *= 2;
      if ((reads - 1) % read_stride != 0) return;
    }
    read_samples[read_kept++] = {
        static_cast<uint32_t>(std::min<uint64_t>(latency_ns, UINT32_MAX)),
        static_cast<uint16_t>(window), static_cast<uint8_t>(query_class)};
  }

  /// The sampled latencies of one query class.
  std::vector<uint64_t> ClassReadNs(int query_class) const {
    std::vector<uint64_t> out;
    for (size_t i = 0; i < read_kept; ++i) {
      if (read_samples[i].query_class == query_class) {
        out.push_back(read_samples[i].ns);
      }
    }
    return out;
  }
};

void NoteFailure(LoopTotals* t, const Request& r, const Outcome& o) {
  ++t->failed;
  if (t->failures.size() < 5) {
    t->failures.push_back(r.sql + " -> " +
                          (o.status.ok() ? std::string("wrong answer")
                                         : o.status.ToString()));
  }
}

uint64_t CpuNs() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  auto ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1000000000u +
           static_cast<uint64_t>(tv.tv_usec) * 1000u;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

/// The clock the timing metrics are stated at: the base clock of the
/// processor the benchmark was built on (an Intel Xeon at 2.1 GHz).
constexpr double kReferenceGhz = 2.1;

/// The core's clock right now, in GHz: the rate of a chain of dependent
/// additions, one per cycle, timed over about half a millisecond. The host
/// this benchmark was built on moves the clock of a virtual CPU between
/// about 1.3 and 3 GHz as other tenants load the machine, in episodes that
/// last from a fraction of a second to minutes; the timing metrics are
/// converted to kReferenceGhz with it. A probe that the host interrupts
/// reads low, so callers take the faster of two.
double ProbeClockGhz() {
  constexpr uint64_t kAdds = uint64_t{1} << 20;
  uint64_t x = 0;
  const uint64_t start = NowNs();
  for (uint64_t i = 0; i < kAdds; ++i) {
    x += i;
    asm volatile("" : "+r"(x));  // keeps the chain: one add per cycle
  }
  const uint64_t ns = std::max<uint64_t>(1, NowNs() - start);
  return static_cast<double>(kAdds) / static_cast<double>(ns);
}

/// The closed loop: one client thread sends the next request only after
/// the previous one returned and was checked. Only the facade calls are
/// timed; generation, the oracle and the clock probes (at the start and
/// the middle of each window) run between them.
LoopTotals RunLoop(Workload& workload, RequestStream& stream, double seconds) {
  LoopTotals t;
  const uint64_t cpu_start = CpuNs();
  const uint64_t start = NowNs();
  const uint64_t length_ns = static_cast<uint64_t>(seconds * 1e9);
  const uint64_t deadline = start + length_ns;
  t.windows.resize(std::clamp<size_t>(static_cast<size_t>(seconds * 10), 1,
                                      UINT16_MAX));
  const uint64_t window_ns = length_ns / t.windows.size();
  for (uint64_t now = NowNs(); now < deadline; now = NowNs()) {
    const size_t window_index =
        std::min<size_t>(t.windows.size() - 1, (now - start) / window_ns);
    LoopTotals::Window& window = t.windows[window_index];
    const bool second_half = (now - start) % window_ns >= window_ns / 2;
    if (window.clock_probes == 0 || (window.clock_probes == 1 && second_half)) {
      window.clock_ghz = std::max(window.clock_ghz, ProbeClockGhz());
      ++window.clock_probes;
    }
    Request r = stream.Next();
    uint64_t prepare_ns = 0;
    uint64_t execute_ns = 0;
    bool hit = false;
    Outcome o = RunFacade(workload, r, &prepare_ns, &execute_ns, &hit);
    const uint64_t latency = prepare_ns + execute_ns;
    ++t.attempted;
    t.busy_ns += latency;
    ++window.requests;
    window.busy_ns += latency;
    if (r.op == Op::kRead) {
      ++t.reads;
      t.SampleRead(latency, window_index, r.query_class);
      t.execute_ns += execute_ns;
      if (hit) {
        ++t.hits;
        t.prepare_hit_ns += prepare_ns;
      }
    } else {
      ++t.writes;
      t.write_ns.push_back(latency);
      t.op_write_ns[r.op].push_back(latency);
    }
    if (!workload.Check(r, o)) NoteFailure(&t, r, o);
    t.digest = RequestDigest(t.digest, r);
  }
  t.elapsed_ns = NowNs() - start;
  t.cpu_ns = CpuNs() - cpu_start;
  return t;
}

/// The loop's times converted to kReferenceGhz, each by the clock of the
/// window it ran in.
struct ReferenceClockTotals {
  uint64_t requests = 0;
  double busy_ns = 0;
  std::vector<double> read_ns;    // of the sampled reads
  std::vector<double> clock_ghz;  // of each window that ran a request
};

ReferenceClockTotals ConvertToReferenceClock(const LoopTotals& t) {
  ReferenceClockTotals out;
  for (const LoopTotals::Window& w : t.windows) {
    if (w.requests == 0) continue;
    out.requests += w.requests;
    out.busy_ns += static_cast<double>(w.busy_ns) * w.clock_ghz / kReferenceGhz;
    out.clock_ghz.push_back(w.clock_ghz);
  }
  for (size_t i = 0; i < t.read_kept; ++i) {
    const ReadSample& s = t.read_samples[i];
    out.read_ns.push_back(static_cast<double>(s.ns) *
                          t.windows[s.window].clock_ghz / kReferenceGhz);
  }
  return out;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t CounterDelta(const uniqopt::obs::CounterSnapshot& before,
                      const uniqopt::obs::CounterSnapshot& after,
                      const std::string& name) {
  auto a = after.find(name);
  if (a == after.end()) return 0;
  auto b = before.find(name);
  return a->second - (b == before.end() ? 0 : b->second);
}

/// rewrite.rule.<Rule>.fired
bool IsFiredCounter(const std::string& name) {
  return name.rfind("rewrite.rule.", 0) == 0 && name.size() > 6 &&
         name.compare(name.size() - 6, 6, ".fired") == 0;
}

bool Attributed(const std::string& name) {
  auto starts = [&](const char* p) { return name.rfind(p, 0) == 0; };
  return starts("cache.") || name == "analysis.algorithm1.runs" ||
         IsFiredCounter(name) || starts("equiv.") ||
         name == "verify.plan.violations" || starts("exec.");
}

/// Prints the per-request deltas of the counters the layers keep in the
/// registry and returns the number of refutations plus verifier
/// violations among them (any is a failed run).
uint64_t PrintRegistryDeltas(const uniqopt::obs::CounterSnapshot& before,
                             const uniqopt::obs::CounterSnapshot& after,
                             uint64_t requests) {
  for (const auto& [name, value] : after) {
    if (!Attributed(name)) continue;
    const uint64_t delta = CounterDelta(before, after, name);
    if (delta == 0) continue;
    std::printf("registry %-44s %s per_request (delta %llu)\n", name.c_str(),
                Num(Ratio(static_cast<double>(delta),
                          static_cast<double>(requests)))
                    .c_str(),
                static_cast<unsigned long long>(delta));
  }
  return CounterDelta(before, after, "equiv.refuted") +
         CounterDelta(before, after, "verify.plan.violations");
}

void PrintLoopReport(const Workload& workload, const LoopTotals& t) {
  std::printf("loop closed clients=1 dop=1 requests=%llu reads=%llu "
              "writes=%llu elapsed_s=%s cpu_s=%s consumed_digest=%016llx\n",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.reads),
              static_cast<unsigned long long>(t.writes),
              Num(static_cast<double>(t.elapsed_ns) / 1e9).c_str(),
              Num(static_cast<double>(t.cpu_ns) / 1e9).c_str(),
              static_cast<unsigned long long>(t.digest));
  std::printf("samples read=%zu (every %llu. read) beyond_read_p99=%zu "
              "write=%zu beyond_write_p99=%zu plan_cache_hits=%llu\n",
              t.read_kept, static_cast<unsigned long long>(t.read_stride),
              t.read_kept / 100, t.write_ns.size(), t.write_ns.size() / 100,
              static_cast<unsigned long long>(t.hits));
  std::string clocks;
  char clock[16];
  for (const LoopTotals::Window& w : t.windows) {
    std::snprintf(clock, sizeof(clock), " %.2f", w.clock_ghz);
    clocks += clock;
  }
  std::printf("windows clock_ghz=[%s ]\n", clocks.c_str());
  const std::vector<std::string> names = workload.ClassNames();
  for (size_t c = 0; c < names.size(); ++c) {
    const std::vector<uint64_t> s = t.ClassReadNs(static_cast<int>(c));
    std::printf("class %-28s n=%zu p50_us=%s p99_us=%s\n", names[c].c_str(),
                s.size(), Num(Quantile(s, 0.5) / 1e3).c_str(),
                Num(Quantile(s, 0.99) / 1e3).c_str());
  }
  for (const auto& [op, samples] : t.op_write_ns) {
    std::printf("write %-28s n=%zu p50_us=%s p99_us=%s\n", OpName(op),
                samples.size(), Num(Quantile(samples, 0.5) / 1e3).c_str(),
                Num(Quantile(samples, 0.99) / 1e3).c_str());
  }
  if (workload.config().name == "analytic_join") {
    // The paper's claim: Example 1's DISTINCT is removed, Example 2's
    // must stay (the sort it pays for is the gap).
    std::printf("paper example2_over_example1_p50 %s\n",
                Num(Ratio(Quantile(t.ClassReadNs(1), 0.5),
                          Quantile(t.ClassReadNs(0), 0.5)))
                    .c_str());
  }
  for (const std::string& f : t.failures) {
    std::printf("failure %s\n", f.c_str());
  }
}

uint64_t StreamPrefixDigest(const Workload& workload, uint64_t seed) {
  std::unique_ptr<RequestStream> stream = workload.NewStream(seed);
  uint64_t h = kDigestBasis;
  for (size_t i = 0; i < kDigestPrefix; ++i) h = RequestDigest(h, stream->Next());
  return h;
}

bool SetupOrReport(Workload& workload) {
  uniqopt::Status st = workload.Setup();
  if (st.ok()) st = workload.PrepareOracle();
  if (!st.ok()) {
    std::fprintf(stderr, "reqbench: set-up failed: %s\n",
                 st.ToString().c_str());
    return false;
  }
  return true;
}

int RunUntraced(const Args& args, Workload& workload) {
  // setup_s is the median of several complete set-ups: at least three,
  // and more for quick ones, until two seconds were spent (at most 25).
  // Each is converted to kReferenceGhz by the faster of a clock probe
  // before and one after it.
  std::vector<double> setup_ns;  // at kReferenceGhz
  std::vector<double> setup_clock_ghz;
  uint64_t setup_total_ns = 0;
  auto more = [&] {
    const size_t done = setup_ns.size();
    if (args.tiny) return done < 1;
    return done < 3 || (done < 25 && setup_total_ns < 2000000000u);
  };
  while (more()) {
    const double clock_before = ProbeClockGhz();
    const uint64_t start = NowNs();
    uniqopt::Status st = workload.Setup();
    const uint64_t ns = NowNs() - start;
    setup_clock_ghz.push_back(std::max(clock_before, ProbeClockGhz()));
    setup_ns.push_back(static_cast<double>(ns) * setup_clock_ghz.back() /
                       kReferenceGhz);
    setup_total_ns += ns;
    if (!st.ok()) {
      std::fprintf(stderr, "reqbench: set-up failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }
  if (uniqopt::Status st = workload.PrepareOracle(); !st.ok()) {
    std::fprintf(stderr, "reqbench: oracle set-up failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  std::string setups;
  for (double ns : setup_ns) setups += " " + Num(ns / 1e9);
  std::printf("setup runs=%zu seconds_at_reference_clock=[%s ] "
              "clock_ghz_median=%s\n",
              setup_ns.size(), setups.c_str(),
              Num(Quantile(setup_clock_ghz, 0.5)).c_str());

  uniqopt::obs::MetricsRegistry& registry =
      uniqopt::obs::MetricsRegistry::Global();
  const auto before = registry.Counters();
  std::unique_ptr<RequestStream> stream = workload.NewStream(args.seed);
  LoopTotals t = RunLoop(workload, *stream, args.seconds);
  // Taken before the report, whose copies grow with the number of samples.
  const double peak_rss_mb = PeakRssMb();
  const auto after = registry.Counters();
  PrintLoopReport(workload, t);
  const uint64_t broken = PrintRegistryDeltas(before, after, t.attempted);
  const bool final_ok = workload.CheckFinal();
  if (!final_ok) std::printf("failure final row counts differ from shadow\n");
  const uint64_t failed = t.failed + (final_ok ? 0 : 1) + broken;

  const ReferenceClockTotals ref = ConvertToReferenceClock(t);
  std::printf("clock windows=%zu median_ghz=%s reference_ghz=%s\n",
              ref.clock_ghz.size(), Num(Quantile(ref.clock_ghz, 0.5)).c_str(),
              Num(kReferenceGhz).c_str());
  const std::vector<Metric> metrics = {
      {"throughput_rps",
       Ratio(static_cast<double>(ref.requests), ref.busy_ns / 1e9), "1/s"},
      {"read_p50_us", Quantile(ref.read_ns, 0.5) / 1e3, "us"},
      {"read_p99_us", Quantile(ref.read_ns, 0.99) / 1e3, "us"},
      {"setup_s", Quantile(setup_ns, 0.5) / 1e9, "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  for (const Metric& m : metrics) PrintMetric(m);
  // Reported beside the bounded metrics: write latency exists only where
  // there are writes, and failed_frac is 0 when all is well.
  PrintMetric({"write_p50_us", Quantile(t.write_ns, 0.5) / 1e3, "us"});
  PrintMetric({"write_p99_us", Quantile(t.write_ns, 0.99) / 1e3, "us"});
  PrintMetric({"failed_frac",
               Ratio(static_cast<double>(failed),
                     static_cast<double>(t.attempted)),
               "ratio"});
  std::printf("%s\n",
              ResultJson(failed == 0, t.attempted, failed, metrics).c_str());
  return 0;
}

struct HistogramTotals {
  uint64_t count = 0;
  uint64_t sum = 0;
};

HistogramTotals ReadHistogram(const std::string& name) {
  const uniqopt::obs::Histogram* h =
      uniqopt::obs::MetricsRegistry::Global().FindHistogram(name);
  if (h == nullptr) return {};
  return {h->count(), h->sum()};
}

/// What one Begin/End pair costs: the time tracing adds per span.
double SpanCostNs() {
  SpanLog scratch(/*max_kept=*/0);
  constexpr int kPairs = 100000;
  const uint64_t start = NowNs();
  for (int i = 0; i < kPairs; ++i) {
    scratch.Begin(Layer::kRequest, 0);
    scratch.End();
  }
  return static_cast<double>(NowNs() - start) / kPairs;
}

int RunTraced(const Args& args, Workload& workload) {
  // Phase A: the untraced loop through the facade for half the time; its
  // registry deltas are the counter-based per-layer metrics.
  if (!SetupOrReport(workload)) return 1;
  uniqopt::obs::MetricsRegistry& registry =
      uniqopt::obs::MetricsRegistry::Global();
  const std::vector<std::string> phases = {"parse", "bind", "analyze",
                                           "rewrite", "verify", "execute"};
  std::map<std::string, HistogramTotals> phase_before;
  for (const std::string& p : phases) {
    phase_before[p] = ReadHistogram("optimizer.phase." + p + ".ns");
  }
  const auto before = registry.Counters();
  std::unique_ptr<RequestStream> stream = workload.NewStream(args.seed);
  LoopTotals a = RunLoop(workload, *stream, args.seconds / 2);
  const auto after = registry.Counters();
  std::map<std::string, double> phase_registry_ns;  // per request
  for (const std::string& p : phases) {
    const HistogramTotals now = ReadHistogram("optimizer.phase." + p + ".ns");
    phase_registry_ns[p] = static_cast<double>(now.sum - phase_before[p].sum) /
                           static_cast<double>(std::max<uint64_t>(a.attempted, 1));
  }
  const bool final_a = workload.CheckFinal();
  PrintLoopReport(workload, a);
  const uint64_t broken = PrintRegistryDeltas(before, after, a.attempted);

  // Phase B: the same stream again on twin fresh set-ups. Each request
  // runs once layer by layer under spans (on the twin) and once through
  // the facade (untimed by spans), back to back, the order alternating
  // so neither side always finds the caches warm.
  std::unique_ptr<Workload> twin = MakeWorkload(workload.config());
  if (!SetupOrReport(workload) || !SetupOrReport(*twin)) return 1;
  Replayer replayer(twin->db(), twin->optimizer());
  for (const Request& r : twin->WarmupRequests()) replayer.Run(r, nullptr, 0);
  replayer.ResetCounts();
  SpanLog log(/*max_kept=*/50000);
  stream = workload.NewStream(args.seed);
  uint64_t n = 0;
  uint64_t failed_b = 0;
  uint64_t facade_hits = 0;
  double facade_ns = 0;
  double execute_overhead_ns = 0;  // summed over requests
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(args.seconds / 2 * 1e9);
  while (NowNs() < deadline) {
    const Request r = stream->Next();
    const uint32_t id = static_cast<uint32_t>(n++);
    uint64_t lower_run_ns = 0;
    auto replay = [&] {
      const uint64_t lower_run_before =
          log.total_ns(Layer::kLower) + log.total_ns(Layer::kRun);
      log.Begin(Layer::kRequest, id);
      Outcome o = replayer.Run(r, &log, id);
      log.End();
      lower_run_ns = log.total_ns(Layer::kLower) + log.total_ns(Layer::kRun) -
                     lower_run_before;
      if (!twin->Check(r, o)) ++failed_b;
    };
    uint64_t prepare_ns = 0;
    uint64_t execute_ns = 0;
    auto facade = [&] {
      bool hit = false;
      Outcome o = RunFacade(workload, r, &prepare_ns, &execute_ns, &hit);
      facade_hits += hit ? 1 : 0;
      if (!workload.Check(r, o)) ++failed_b;
    };
    if (id % 2 == 0) {
      replay();
      facade();
    } else {
      facade();
      replay();
    }
    facade_ns += static_cast<double>(prepare_ns + execute_ns);
    if (r.op == Op::kRead) {
      // Optimizer::Execute minus lowering and running: parameter
      // binding, QueryRecord, recorder and metric mirroring.
      execute_overhead_ns += static_cast<double>(execute_ns) -
                             static_cast<double>(lower_run_ns);
    }
  }
  const bool final_b = workload.CheckFinal() && twin->CheckFinal();
  std::printf("replay requests=%llu hits=%llu misses=%llu facade_hits=%llu\n",
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(replayer.hits()),
              static_cast<unsigned long long>(replayer.misses()),
              static_cast<unsigned long long>(facade_hits));
  if (!args.trace_out.empty()) {
    if (log.WriteJsonl(args.trace_out)) {
      std::printf("spans %zu written to %s\n", log.kept(),
                  args.trace_out.c_str());
    } else {
      std::fprintf(stderr, "reqbench: cannot write %s\n",
                   args.trace_out.c_str());
    }
  }

  const double n_a = static_cast<double>(a.attempted);
  const double n_b = static_cast<double>(std::max<uint64_t>(n, 1));
  auto per_b = [&](Layer layer) {
    return static_cast<double>(log.self_ns(layer)) / n_b;
  };
  auto delta = [&](const std::string& name) {
    return static_cast<double>(CounterDelta(before, after, name));
  };
  const double untraced_ns = facade_ns / n_b;
  double attributed_ns = execute_overhead_ns / n_b;
  uint64_t spans = 0;
  for (size_t i = 0; i < kNumLayers; ++i) {
    spans += log.calls(Layer(i));
    if (Layer(i) != Layer::kRequest) attributed_ns += per_b(Layer(i));
  }
  const double span_cost_ns = SpanCostNs();
  const double cold_prepares = delta("cache.misses");
  double fired = 0;
  for (const auto& [name, value] : after) {
    if (IsFiredCounter(name)) fired += delta(name);
  }
  const uniqopt::ExecStats& stats = replayer.exec_stats();
  const uint64_t failed =
      a.failed + failed_b + broken + (final_a ? 0 : 1) + (final_b ? 0 : 1);
  const uint64_t attempted = a.attempted + 2 * n;

  std::vector<Metric> metrics = {
      {"cache.canonicalize_ns", per_b(Layer::kCacheCanonicalize), "ns"},
      {"cache.lookup_ns", per_b(Layer::kCacheLookup), "ns"},
      {"cache.insert_ns", per_b(Layer::kCacheInsert), "ns"},
      {"cache.hit_ratio",
       Ratio(delta("cache.hits"), delta("cache.hits") + cold_prepares),
       "ratio"},
      {"cache.evictions_per_req", Ratio(delta("cache.evictions"), n_a),
       "count"},
      {"cache.invalidations_per_write",
       Ratio(delta("cache.invalidations"), static_cast<double>(a.writes)),
       "count"},
      {"parser.parse_ns", per_b(Layer::kParse), "ns"},
      {"plan.bind_ns", per_b(Layer::kBind), "ns"},
      {"analysis.analyze_ns", per_b(Layer::kAnalyze), "ns"},
      {"analysis.algorithm1_runs_per_prepare",
       Ratio(delta("analysis.algorithm1.runs"), cold_prepares), "count"},
      {"rewrite.rewrite_ns", per_b(Layer::kRewrite), "ns"},
      {"rewrite.fired_per_prepare", Ratio(fired, cold_prepares), "count"},
      {"verify.verify_ns", per_b(Layer::kVerify), "ns"},
      {"equiv.certify_ns", per_b(Layer::kEquivCertify), "ns"},
      {"uniqopt.prepare_hit_ns",
       Ratio(static_cast<double>(a.prepare_hit_ns),
             static_cast<double>(a.hits)),
       "ns"},
      {"uniqopt.execute_overhead_ns", execute_overhead_ns / n_b, "ns"},
      {"exec.lower_ns", per_b(Layer::kLower), "ns"},
      {"exec.run_ns", per_b(Layer::kRun), "ns"},
      {"exec.rows_scanned_per_req",
       static_cast<double>(stats.rows_scanned) / n_b, "count"},
      {"exec.hash_build_rows_per_req",
       static_cast<double>(stats.hash_build_rows) / n_b, "count"},
      {"exec.hash_probes_per_req",
       static_cast<double>(stats.hash_probes) / n_b, "count"},
      {"exec.rows_sorted_per_req",
       static_cast<double>(stats.rows_sorted) / n_b, "count"},
      {"exec.inner_loop_rows_per_req",
       static_cast<double>(stats.inner_loop_rows) / n_b, "count"},
      {"exec.index_probes_per_req",
       static_cast<double>(stats.index_probes) / n_b, "count"},
      {"txn.bind_ns", per_b(Layer::kTxnBind), "ns"},
      {"txn.execute_ns", per_b(Layer::kTxnExecute), "ns"},
      {"txn.reject_ns", per_b(Layer::kTxnReject), "ns"},
      {"write_p50_us", Quantile(a.write_ns, 0.5) / 1e3, "us"},
      {"write_p99_us", Quantile(a.write_ns, 0.99) / 1e3, "us"},
      {"failed_frac",
       Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
       "ratio"},
      {"unattributed_frac", 1.0 - Ratio(attributed_ns, untraced_ns), "ratio"},
      {"trace_overhead_frac",
       Ratio(static_cast<double>(spans) / n_b * span_cost_ns, untraced_ns),
       "ratio"},
  };
  std::printf("untraced request_ns=%s traced root_ns=%s spans_per_request=%s "
              "span_cost_ns=%s\n",
              Num(untraced_ns).c_str(),
              Num(static_cast<double>(log.total_ns(Layer::kRequest)) / n_b)
                  .c_str(),
              Num(static_cast<double>(spans) / n_b).c_str(),
              Num(span_cost_ns).c_str());
  // The facade's own phase histograms (phase A, per request) beside the
  // spans that time the same calls (phase B; verify there includes the
  // prover).
  const std::map<std::string, double> span_ns = {
      {"parse", per_b(Layer::kParse)},
      {"bind", per_b(Layer::kBind)},
      {"analyze", per_b(Layer::kAnalyze)},
      {"rewrite", per_b(Layer::kRewrite)},
      {"verify", per_b(Layer::kVerify) + per_b(Layer::kEquivCertify)},
      {"execute", per_b(Layer::kLower) + per_b(Layer::kRun)}};
  for (const std::string& p : phases) {
    std::printf("crosscheck %-8s registry_ns_per_req=%s span_ns_per_req=%s\n",
                p.c_str(), Num(phase_registry_ns[p]).c_str(),
                Num(span_ns.at(p)).c_str());
  }
  for (const Metric& m : metrics) PrintMetric(m);
  std::printf("%s\n",
              ResultJson(failed == 0, attempted, failed, metrics).c_str());
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "reqbench: %s\n", error.c_str());
    return 2;
  }
  WorkloadConfig config;
  config.name = args.workload;
  config.seed = args.seed;
  config.tiny = args.tiny;
  config.corrupt_oracle = args.corrupt_oracle;
  std::unique_ptr<Workload> workload = MakeWorkload(config);
  if (workload == nullptr) {
    std::string names;
    for (const std::string& n : WorkloadNames()) names += " " + n;
    std::fprintf(stderr, "reqbench: unknown workload %s (one of:%s)\n",
                 args.workload.c_str(), names.c_str());
    return 2;
  }
  std::printf("reqbench workload=%s seed=%llu seconds=%s trace=%d scale=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              Num(args.seconds).c_str(), args.trace,
              args.tiny ? "tiny" : "full");
  std::printf("stream seed=%llu digest=%016llx (first %zu requests)\n",
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(
                  StreamPrefixDigest(*workload, args.seed)),
              kDigestPrefix);
  std::fflush(stdout);
  return args.trace == 0 ? RunUntraced(args, *workload)
                         : RunTraced(args, *workload);
}

}  // namespace
}  // namespace reqbench

int main(int argc, char** argv) { return reqbench::Main(argc, argv); }
