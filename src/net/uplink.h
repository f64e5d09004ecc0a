// Uplink: the reconnecting client end of a dispatch-tier link (DESIGN.md
// §13-§14).
//
// A net::WorkerClient below a master and a fed::Foreman below a root keep
// their upward connection the same way, so both derive from the uplink:
// connect, hello naming the preferred wire version and capacity, answer
// pings, ship the process's own telemetry, and treat a close without a bye
// as a network fault. A dead link reconnects with chaos::RetryPolicy
// exponential backoff, its jitter deterministically seeded from the
// client's name. The client handles every other frame and decides what a
// bye and a give-up mean.
//
// The reconnect budget (max_reconnect_attempts) counts failures — failed
// connects plus unexpected closes — since the client last reported
// progress(), and progress restores it in full. A bare TCP accept does NOT:
// against a peer that accepts and immediately drops (a crash loop, a
// misrouted port) the client must eventually give up rather than flap
// forever. Conversely a long-lived client that keeps making progress never
// exhausts the budget, no matter how many sparse, unrelated disconnects it
// weathers over hours.
//
// Two timeouts keep a silent peer from holding the client forever. A link
// that has not answered the hello within handshake_timeout is dropped — a
// live master dispatches to or pings an idle link within its heartbeat, so
// a silent accept is a dead one, typically a connection the kernel
// completed into the backlog of a listener whose owner stopped serving it.
// A link on which nothing moved in either direction for idle_timeout is
// dropped too; the client's own sends count, because a master does not
// ping a link that holds work. Both drops charge the reconnect budget.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alloc/resources.h"
#include "chaos/retry.h"
#include "net/conn.h"
#include "net/event_loop.h"
#include "net/tier_metrics.h"
#include "wq/protocol.h"

namespace lfm::net {

// Timeouts a client uses unless its options override them. The idle one is
// generous: an idle-but-alive master pings well inside it.
constexpr double kDefaultIdleTimeout = 60.0;
constexpr double kDefaultHandshakeTimeout = 5.0;

// Reconnect backoff used when the options don't override it: 20 ms doubling
// to 1 s with 25% deterministic jitter. (RetryPolicy's own default of
// backoff_base == 0 — immediate, seed-faithful requeue — would spin against
// a dead master.)
chaos::RetryPolicy default_reconnect_policy();

class Uplink {
 public:
  Uplink(const Uplink&) = delete;  // callbacks hold `this`
  Uplink& operator=(const Uplink&) = delete;

  // Thread-safe: make run() return after the current callback.
  void stop();

  // True when run() ended by exhausting the reconnect budget (as opposed to
  // a bye or stop()).
  bool gave_up() const { return gave_up_; }
  // Failed connects + unexpected closes since the last progress().
  int failures_since_progress() const { return attempt_; }
  int64_t reconnects() const { return reconnects_; }
  // Own telemetry events dropped under backpressure, not yet reported.
  int64_t telemetry_dropped() const { return telemetry_dropped_; }

 protected:
  struct Settings {
    std::string name;
    std::string host;
    uint16_t port = 0;
    wq::WireVersion version = wq::WireVersion::kV2;
    alloc::Resources capacity;
    chaos::RetryPolicy reconnect;
    int max_reconnect_attempts = 0;
    double idle_timeout = 0.0;       // 0 = off
    double handshake_timeout = 0.0;  // 0 = off
    // Own telemetry is dropped instead of queued past this backlog.
    size_t telemetry_backpressure_bytes = 0;
  };

  Uplink(Settings settings, TierMetrics metrics);
  virtual ~Uplink() = default;

  // Every frame but control ones: the uplink answers pings itself.
  virtual void on_frame(Connection& conn, std::string&& wire) = 0;
  // The peer said bye: the next close ends the run instead of reconnecting.
  virtual void on_bye(Connection& conn) = 0;
  virtual void on_connect() {}                 // after each hello
  // The run is abandoned: the budget ran out, or stop() was called (then
  // on the loop thread, after the link closed).
  virtual void on_abandon() { loop_.stop(); }
  // The link closed after a bye or stop(): the run is over.
  virtual void on_finished() { loop_.stop(); }
  virtual void on_tick() {}  // every tick_interval of run()
  virtual void count_dropped(int64_t events) = 0;

  // Connect (retrying with backoff) and run the loop until it stops, then
  // ship the last telemetry and close the link. Throws lfm::Error if the
  // peer was never reached at all.
  void run(double tick_interval);
  // Send on the live link (no-op while down); counts toward the idle clock.
  void send(std::string frame);
  // Results travel as one v2 batch frame when there are several.
  void send_results(const std::vector<wq::ResultMessage>& results,
                    wq::WireVersion version);
  // Ship the recorder's buffered events and this process's metrics upward
  // (tracing runs over v2 only). A backlogged link drops the batch instead
  // (count_dropped) and reports it in the next frame that ships.
  void ship_telemetry();
  // The link worked end to end: restore the full reconnect budget.
  void progress() { attempt_ = 0; }
  bool saw_bye() const { return bye_; }
  Connection* link() const {
    return conn_ && !conn_->closed() ? conn_.get() : nullptr;
  }

  EventLoop loop_;
  TierMetrics metrics_;

 private:
  void try_connect();
  void schedule_reconnect(const std::string& reason);
  void on_message(Connection& conn, std::string&& wire);

  Settings settings_;
  uint64_t jitter_seed_;
  std::shared_ptr<Connection> conn_;
  uint64_t next_conn_id_ = 1;
  int attempt_ = 0;  // failures since the last progress() (see above)
  bool ever_connected_ = false;
  bool bye_ = false;
  bool gave_up_ = false;
  std::atomic<bool> stopped_{false};
  int64_t reconnects_ = 0;
  double last_send_ = 0.0;
  int64_t telemetry_dropped_ = 0;
};

}  // namespace lfm::net
