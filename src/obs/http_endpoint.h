#ifndef UNIQOPT_OBS_HTTP_ENDPOINT_H_
#define UNIQOPT_OBS_HTTP_ENDPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "common/status.h"
#include "obs/recorder.h"

namespace uniqopt {
namespace obs {

/// Minimal blocking HTTP/1.1 observability endpoint: one listener
/// thread, one request per connection, loopback only. Serves
///
///   GET /metrics     Prometheus text exposition of the metrics registry
///   GET /queries     flight-recorder history as JSON
///   GET /advisor     uniqueness constraint advisor suggestions as JSON
///   GET /timeseries  windowed time-series plane snapshot (JSON)
///   GET /alerts      regression-sentinel alert ring (JSON)
///   GET /healthz     liveness: uptime + background ticker state (JSON)
///   GET /            plain-text index
///
/// HEAD is answered with the same headers and no body; unknown paths
/// get a 404 with an application/json error body so scrapers never have
/// to sniff the content type of a failure.
///
/// This is an operational plane for scrapes and debugging, not a web
/// server: no keep-alive, no TLS, bounded request size. Started from
/// the shell's \serve or embedded by a host process.
class HttpEndpoint {
 public:
  /// `recorder` defaults to the global flight recorder.
  explicit HttpEndpoint(QueryRecorder* recorder = nullptr);
  ~HttpEndpoint();

  HttpEndpoint(const HttpEndpoint&) = delete;
  HttpEndpoint& operator=(const HttpEndpoint&) = delete;

  /// Binds 127.0.0.1:`port` (0 ⇒ kernel-assigned, see port()) and
  /// starts the listener thread.
  Status Start(uint16_t port);

  /// Stops the listener and joins the thread. Idempotent.
  void Stop();

  bool serving() const { return serving_.load(std::memory_order_acquire); }
  /// The bound port (resolved when Start was given 0).
  uint16_t port() const { return port_; }

  /// Renders the response body for `path` — the exact payloads the
  /// routes serve, exposed for file dumps (\export) and tests.
  /// Unknown paths yield an empty string.
  std::string RenderPath(const std::string& path) const;

 private:
  void Serve();
  void HandleConnection(int fd);

  QueryRecorder* recorder_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> serving_{false};
  /// Steady-clock ns when Start() succeeded; /healthz reports uptime
  /// relative to this.
  std::atomic<uint64_t> start_steady_ns_{0};
  std::thread thread_;
};

}  // namespace obs
}  // namespace uniqopt

#endif  // UNIQOPT_OBS_HTTP_ENDPOINT_H_
