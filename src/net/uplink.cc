#include "net/uplink.h"

#include <unistd.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "net/socket.h"
#include "obs/collector.h"
#include "obs/recorder.h"
#include "util/error.h"
#include "util/hash.h"
#include "util/log.h"

namespace lfm::net {

chaos::RetryPolicy default_reconnect_policy() {
  chaos::RetryPolicy p;
  p.backoff_base = 0.02;
  p.backoff_multiplier = 2.0;
  p.backoff_max = 1.0;
  p.jitter_fraction = 0.25;
  return p;
}

Uplink::Uplink(Settings settings, TierMetrics metrics)
    : metrics_(metrics),
      settings_(std::move(settings)),
      jitter_seed_(hash64(settings_.name)) {}

void Uplink::run(double tick_interval) {
  bye_ = false;
  gave_up_ = false;
  attempt_ = 0;
  uint64_t idle_timer = 0;
  if (settings_.idle_timeout > 0) {
    const double check = std::max(0.25, settings_.idle_timeout / 4.0);
    idle_timer = loop_.run_every(check, [this] {
      if (!link()) return;
      const double last = std::max(conn_->last_activity(), last_send_);
      if (EventLoop::now() - last > settings_.idle_timeout) {
        conn_->close("idle-timeout");
      }
    });
  }
  const uint64_t tick_timer =
      tick_interval > 0 ? loop_.run_every(tick_interval, [this] { on_tick(); })
                        : 0;
  try_connect();
  loop_.run();
  if (idle_timer != 0) loop_.cancel_timer(idle_timer);
  if (tick_timer != 0) loop_.cancel_timer(tick_timer);
  // Last words before the link drops: whatever the drain recorded (final
  // task.inflight ends, shutdown instants). Connection::send writes
  // synchronously when the socket can take it, so this works even with the
  // loop already stopped.
  ship_telemetry();
  if (link()) conn_->close("shutdown");
  conn_.reset();
  if (gave_up_ && !ever_connected_) {
    throw Error(std::string(metrics_.tier()) + ": \"" + settings_.name +
                "\" could not reach " + settings_.host + ":" +
                std::to_string(settings_.port));
  }
}

void Uplink::stop() {
  stopped_.store(true);
  loop_.post([this] {
    if (link()) conn_->close("stopped");
    on_abandon();
    loop_.stop();
  });
}

void Uplink::try_connect() {
  if (stopped_.load()) {
    loop_.stop();
    return;
  }
  const int fd = connect_tcp(settings_.host, settings_.port);
  if (fd < 0) {
    ++attempt_;
    schedule_reconnect("connect failed");
    return;
  }
  if (ever_connected_) ++reconnects_;
  ever_connected_ = true;
  // Deliberately NOT resetting attempt_ here: a successful connect proves
  // only that something accepted — the budget replenishes on progress, so
  // an accept-then-drop flapper still exhausts it.
  conn_ = std::make_shared<Connection>(loop_, fd, next_conn_id_++);
  conn_->set_on_message([this](Connection& c, std::string&& wire) {
    on_message(c, std::move(wire));
  });
  conn_->set_on_close([this](Connection&, const std::string& reason) {
    loop_.post([this, reason] {
      if (bye_ || stopped_.load()) {
        on_finished();
        return;
      }
      ++attempt_;
      schedule_reconnect(reason);
    });
  });
  conn_->start();
  // The hello travels in the preferred dialect itself — receiving it both
  // names the version and demonstrates the client speaks it.
  send(wq::encode(wq::HelloMessage{settings_.name, settings_.version,
                                   settings_.capacity},
                  settings_.version));
  if (settings_.handshake_timeout > 0) {
    std::weak_ptr<Connection> weak = conn_;
    loop_.run_after(settings_.handshake_timeout, [this, weak] {
      const auto c = weak.lock();
      if (!c || c != conn_ || c->closed()) return;
      if (c->messages_in() == 0) c->close("handshake-timeout");
    });
  }
  on_connect();
}

void Uplink::schedule_reconnect(const std::string& reason) {
  if (attempt_ > settings_.max_reconnect_attempts) {
    LFM_WARN(metrics_.tier(), std::string(metrics_.tier()) + " " +
                                  settings_.name + " giving up after " +
                                  std::to_string(attempt_ - 1) +
                                  " failed reconnects (" + reason + ")");
    metrics_.count("reconnect_give_ups");
    gave_up_ = true;
    on_abandon();
    return;
  }
  const double delay =
      settings_.reconnect.backoff_delay(jitter_seed_, attempt_ - 1);
  loop_.run_after(delay, [this] { try_connect(); });
}

void Uplink::on_message(Connection& conn, std::string&& wire) {
  metrics_.count("frames_in");
  if (wq::classify(wire) != wq::MessageKind::kControl) {
    on_frame(conn, std::move(wire));
    return;
  }
  const wq::ControlMessage ctl = wq::decode_control(wire);
  if (ctl.type == wq::ControlType::kPing) {
    // Carry this side's clock so the pinger can estimate the offset;
    // emitted only on tracing runs (the field stays off the wire otherwise,
    // keeping untraced control frames byte-identical).
    wq::ControlMessage pong{wq::ControlType::kPong, ctl.nonce, ctl.timestamp};
    if (obs::Recorder::enabled()) pong.peer_time = EventLoop::now();
    send(wq::encode(pong, wq::detect_version(wire)));
  } else if (ctl.type == wq::ControlType::kBye) {
    bye_ = true;
    on_bye(conn);
  }
}

void Uplink::send(std::string frame) {
  if (!link()) return;
  conn_->send(std::move(frame));
  last_send_ = EventLoop::now();
}

void Uplink::send_results(const std::vector<wq::ResultMessage>& results,
                          wq::WireVersion version) {
  if (results.size() > 1 && version == wq::WireVersion::kV2) {
    send(wq::encode_batch(results, version));
  } else {
    for (const wq::ResultMessage& r : results) send(wq::encode(r, version));
  }
}

void Uplink::ship_telemetry() {
  if (!obs::Recorder::enabled() || !link()) return;
  if (settings_.version != wq::WireVersion::kV2) return;  // v2-only frame
  obs::Recorder& r = obs::Recorder::global();
  if (r.event_count() == 0 && telemetry_dropped_ == 0) return;
  if (conn_->queued_bytes() > settings_.telemetry_backpressure_bytes) {
    // Backpressure: the link is already choking on results/files. Trace
    // events are the one payload that may be discarded — drop the batch,
    // remember how much, and report it in the next frame that does ship.
    const auto dropped = static_cast<int64_t>(r.drain_events().size());
    telemetry_dropped_ += dropped;
    count_dropped(dropped);
    return;
  }
  wq::TelemetryMessage msg;
  msg.source = settings_.name;
  msg.process_id = static_cast<uint64_t>(::getpid());
  msg.clock_offset = 0.0;  // the receiving hop adds its estimate
  msg.dropped = telemetry_dropped_;
  telemetry_dropped_ = 0;
  msg.events = obs::to_telemetry(r.drain_events());
  msg.counters = r.metrics().counters();
  msg.gauges = r.metrics().gauges();
  send(wq::encode(msg, wq::WireVersion::kV2));
}

}  // namespace lfm::net
