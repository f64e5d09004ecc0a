#include "net/peer_hub.h"

#include <algorithm>
#include <utility>

#include "obs/recorder.h"
#include "util/error.h"

namespace lfm::net {

namespace {

void mark(const TierMetrics& m, const char* name, const std::string& detail,
          uint64_t tid) {
  if (obs::Recorder::enabled()) {
    obs::Recorder& r = obs::Recorder::global();
    r.instant(obs::kPidHost, tid, r.now(), name, m.tier(), "detail", detail);
  }
}

void add_traffic(LinkTotals& t, const Connection& conn) {
  t.bytes_sent += conn.bytes_out();
  t.bytes_received += conn.bytes_in();
  t.messages_sent += conn.messages_out();
  t.messages_received += conn.messages_in();
}

}  // namespace

PeerHub::PeerHub(EventLoop& loop, const PeerHubConfig& config,
                 const char* tier, bool persistent, chaos::Journal* journal,
                 TelemetrySink telemetry)
    : metrics_(config.metrics, tier),
      ledger_(metrics_, /*root=*/!persistent, journal),
      loop_(loop),
      settings_(config),
      persistent_(persistent),
      telemetry_(std::move(telemetry)),
      listener_(loop, config.port, config.bind_addr) {
  listener_.set_on_accept([this](int fd) { on_accept(fd); });
  listener_.start();
  if (settings_.heartbeat_interval > 0) {
    heartbeat_timer_ =
        loop_.run_every(settings_.heartbeat_interval, [this] { heartbeat(); });
  }
}

PeerHub::~PeerHub() {
  if (heartbeat_timer_ != 0) loop_.cancel_timer(heartbeat_timer_);
  for (auto& [id, p] : peers_) {
    // Detach first: teardown close() must not re-enter handle_close over a
    // half-destroyed map.
    p.conn->set_on_close({});
    if (!p.conn->closed()) p.conn->close("master shutdown");
  }
}

void PeerHub::send(Peer& peer, std::string frame) {
  peer.conn->send(std::move(frame));
  metrics_.count("frames_out");
}

void PeerHub::on_accept(int fd) {
  const uint64_t id = next_id_++;
  auto conn = std::make_shared<Connection>(loop_, fd, id);
  conn->set_on_message([this, id](Connection& c, std::string&& wire) {
    on_message(id, c, std::move(wire));
  });
  conn->set_on_close([this, id](Connection&, const std::string& reason) {
    // Defer: close() can fire from inside a dispatch hook's iteration over
    // peers_; mutating the map there would invalidate the iterator.
    loop_.post([this, id, reason] { handle_close(id, reason); });
  });
  peers_[id].conn = conn;
  ++totals_.connections_accepted;
  metrics_.count("accepts");
  mark(metrics_, "peer.accept", "conn " + std::to_string(id), id);
  conn->start();
}

void PeerHub::on_message(uint64_t id, Connection& conn, std::string&& wire) {
  auto it = peers_.find(id);
  if (it == peers_.end()) return;
  Peer& p = it->second;
  metrics_.count("frames_in");
  switch (wq::classify(wire)) {
    case wq::MessageKind::kHello: {
      const wq::HelloMessage hello = wq::decode_hello(wire);
      p.helloed = true;
      p.version = hello.preferred;
      p.name = hello.worker_name;
      metrics_.count("hellos");
      mark(metrics_, "peer.hello",
           p.name + " v" + std::to_string(static_cast<int>(p.version)), id);
      dispatch(&p);
      return;
    }
    case wq::MessageKind::kResult:
    case wq::MessageKind::kResultBatch: {
      if (!p.helloed) {
        conn.close("result before hello");
        return;
      }
      const std::vector<wq::ResultMessage> results =
          wq::decode_result_batch(wire);
      for (const wq::ResultMessage& msg : results) {
        // An on_result callback may close this link: lost() has requeued
        // the rest of its work and `p` is gone, so the frame ends here.
        if (conn.closed()) break;
        ledger_.complete(msg, [&](size_t index) { settle(p, index); });
      }
      if (!conn.closed()) dispatch(&p);
      check_finished();
      return;
    }
    case wq::MessageKind::kStats:
      on_stats(p, wq::decode_stats(wire));
      return;
    case wq::MessageKind::kControl:
      on_control(p, wire);
      return;
    case wq::MessageKind::kTelemetry: {
      wq::TelemetryMessage msg = wq::decode_telemetry(wire);
      ++totals_.telemetry_frames;
      metrics_.count("telemetry_frames");
      // Accumulate this hop's clock offset: the message arrives with the
      // sender's cumulative estimate (0 for a worker's own events) and
      // leaves with sender-clock-minus-THIS-clock added on top.
      msg.clock_offset += p.offset.offset();
      if (telemetry_) {
        telemetry_(std::move(msg));
      } else {
        metrics_.count("telemetry_dropped_frames");
      }
      return;
    }
    default:
      conn.close("unexpected message kind from peer");
      return;
  }
}

void PeerHub::on_stats(Peer& peer, const wq::StatsMessage&) {
  peer.conn->close("unexpected message kind from peer");
}

void PeerHub::on_control(Peer& p, const std::string& wire) {
  const wq::ControlMessage ctl = wq::decode_control(wire);
  if (ctl.type == wq::ControlType::kPing) {
    // Reply in the dialect the ping arrived in. When tracing, the pong also
    // carries this side's clock so the pinger can estimate the
    // inter-process offset (peer_time stays off the wire otherwise —
    // untraced runs keep byte-identical control frames).
    wq::ControlMessage pong{wq::ControlType::kPong, ctl.nonce, ctl.timestamp};
    if (obs::Recorder::enabled()) pong.peer_time = EventLoop::now();
    send(p, wq::encode(pong, wq::detect_version(wire)));
  } else if (ctl.type == wq::ControlType::kPong && ctl.nonce == p.ping_nonce &&
             p.last_ping_sent > 0) {
    const double now = EventLoop::now();
    metrics_.observe("rtt_seconds", now - p.last_ping_sent, 1e-6, 10.0);
    // A pong carrying the peer's clock is an offset sample: the midpoint of
    // send/receive approximates when the remote stamped.
    if (ctl.peer_time != 0.0) p.offset.feed(p.last_ping_sent, ctl.peer_time, now);
    p.last_ping_sent = 0;
  }
}

void PeerHub::handle_close(uint64_t id, const std::string& reason) {
  auto it = peers_.find(id);
  if (it == peers_.end()) return;
  absorb(*it->second.conn);
  ++totals_.disconnects;
  metrics_.count("disconnects");
  mark(metrics_, "peer.disconnect", reason, id);
  lost(it->second, reason);
  peers_.erase(it);
  dispatch(nullptr);
  check_finished();
}

bool PeerHub::can_take(Peer& peer, size_t depth) {
  if (!peer.live() || peer.work.size() >= depth) return false;
  if (peer.conn->queued_bytes() >= settings_.write_high_watermark) {
    metrics_.count("backpressure_stalls");
    return false;
  }
  return true;
}

void PeerHub::send_file(Peer& peer, const std::string& name, bool cacheable,
                        const serde::Bytes& content) {
  if (cacheable && peer.files.count(name)) return;  // ship-once per link
  send(peer, wq::encode(wq::FileMessage{name, cacheable, content}, peer.version));
  ++totals_.files_sent;
  metrics_.count("files_sent");
  if (cacheable) peer.files.insert(name);
}

void PeerHub::send_tasks(Peer& peer, const std::vector<size_t>& indices) {
  const double now = EventLoop::now();
  std::vector<wq::TaskMessage> batch;
  batch.reserve(std::min(indices.size(), settings_.max_batch));
  for (size_t i = 0; i < indices.size(); ++i) {
    DoneLedger::Entry& t = ledger_[indices[i]];
    t.dispatched_at = now;
    if (obs::Recorder::enabled() && t.task.trace_id != 0) {
      // The "ship" marker of the submit→ship→run→result chain, stamped with
      // the task's trace id via the thread-local scope.
      obs::TraceScope scope(t.task.trace_id);
      obs::Recorder::global().instant(obs::kPidHost, t.task.task_id, now,
                                      "task.ship", metrics_.tier(), "peer",
                                      peer.name);
    }
    batch.push_back(t.task);
    if (batch.size() < settings_.max_batch && i + 1 < indices.size()) continue;
    if (batch.size() > 1 && peer.version == wq::WireVersion::kV2) {
      send(peer, wq::encode_batch(batch, peer.version));
    } else {
      for (const wq::TaskMessage& msg : batch) send(peer, wq::encode(msg, peer.version));
    }
    metrics_.count("dispatched_tasks", static_cast<int64_t>(batch.size()));
    metrics_.observe("batch_size", static_cast<double>(batch.size()), 1.0, 4096.0);
    batch.clear();
  }
}

void PeerHub::heartbeat() {
  const double now = EventLoop::now();
  // Collect first: close() fires callbacks that mutate peers_ (deferred via
  // post, but keep the iteration clean anyway).
  std::vector<Connection*> to_drop;
  for (auto& [id, p] : peers_) {
    // Only idle links: a peer grinding through its work reads nothing until
    // it finishes, and a ping backlog would look like death.
    if (!p.live() || !p.work.empty()) continue;
    if (settings_.idle_timeout > 0 &&
        now - p.conn->last_activity() > settings_.idle_timeout) {
      to_drop.push_back(p.conn.get());
      continue;
    }
    p.ping_nonce += 1;
    p.last_ping_sent = now;
    wq::ControlMessage ping{wq::ControlType::kPing, p.ping_nonce, now};
    send(p, wq::encode(ping, p.version));
    metrics_.count("pings");
  }
  for (Connection* c : to_drop) {
    metrics_.count("idle_closes");
    c->close("idle-timeout");
  }
}

void PeerHub::begin_finish() {
  finishing_ = true;
  // No new peers are welcome once the bye sequence starts. Closing the
  // listener also resets connections the kernel already completed into the
  // backlog — otherwise a peer that idle-cycled its connection right at the
  // end reconnects successfully, waits forever for a hello reply the
  // stopped loop will never send, and deadlocks the whole tree against the
  // parent's waitpid.
  listener_.close();
  for (auto& [id, p] : peers_) {
    if (p.conn->closed()) continue;
    wq::ControlMessage bye{wq::ControlType::kBye, 0, EventLoop::now()};
    send(p, wq::encode(bye, p.version));
    if (obs::Recorder::enabled()) {
      // Tracing runs leave the close to the peer: a worker's bye handler
      // ships a final kTelemetry frame (a foreman first drains its own tier
      // and ships the subtree's) before closing its end, and closing here
      // would stop reading first and lose it. Untraced runs keep the
      // historical prompt close.
      continue;
    }
    p.conn->close_after_flush();
  }
}

void PeerHub::check_finished() {
  // A persistent service never self-finishes: new work can still arrive
  // from above, so only an explicit shutdown() starts the bye sequence.
  if (finishing_ || (!persistent_ && ledger_.drained())) shutdown();
}

void PeerHub::shutdown() {
  if (!finishing_) begin_finish();
  if (peers_.empty()) loop_.stop();
}

void PeerHub::run_until_complete(double timeout) {
  const std::string tier = metrics_.tier();
  if (persistent_) {
    throw Error(tier + ": run_until_complete on a persistent service");
  }
  finishing_ = false;
  timed_out_ = false;
  if (ledger_.pending() == 0) {
    check_finished();
    if (!peers_.empty()) loop_.run();
    return;
  }
  uint64_t watchdog = 0;
  if (timeout > 0) {
    watchdog = loop_.run_after(timeout, [this] {
      timed_out_ = true;
      loop_.stop();
    });
  }
  loop_.run();
  if (watchdog != 0) loop_.cancel_timer(watchdog);
  if (timed_out_) {
    throw Error(tier + ": run timed out with " +
                std::to_string(ledger_.pending()) + " tasks pending");
  }
}

bool PeerHub::drop(size_t k) {
  size_t seen = 0;
  for (auto& [id, p] : peers_) {
    if (!p.live()) continue;
    if (seen++ == k) {
      mark(metrics_, "peer.injected_drop", "conn " + std::to_string(id), id);
      metrics_.count("injected_drops");
      p.conn->close("injected drop");
      return true;
    }
  }
  return false;
}

int PeerHub::connected() const {
  int n = 0;
  for (const auto& [id, p] : peers_) n += p.live() ? 1 : 0;
  return n;
}

void PeerHub::absorb(const Connection& conn) {
  add_traffic(totals_, conn);
  metrics_.count("bytes_out", conn.bytes_out());
  metrics_.count("bytes_in", conn.bytes_in());
}

LinkTotals PeerHub::totals() const {
  LinkTotals t = totals_;
  // Live links have not been absorbed into the running totals yet.
  for (const auto& [id, p] : peers_) add_traffic(t, *p.conn);
  return t;
}

serde::ValueDict PeerHub::statusz(
    const char* peers_key,
    const std::function<void(const Peer&, serde::ValueDict&)>& add) const {
  const LinkTotals t = totals();
  serde::ValueDict d;
  d["pending"] = static_cast<int64_t>(ledger_.pending());
  d["tasks_submitted"] = static_cast<int64_t>(ledger_.size());
  d["tasks_completed"] = ledger_.completed();
  d["duplicate_results"] = ledger_.duplicates();
  d["bytes_sent"] = t.bytes_sent;
  d["bytes_received"] = t.bytes_received;
  d["telemetry_frames"] = t.telemetry_frames;
  serde::ValueList list;
  for (const auto& [id, p] : peers_) {
    serde::ValueDict pd;
    pd["id"] = static_cast<int64_t>(id);
    pd["name"] = p.name;
    pd["alive"] = p.live();
    pd["wire_version"] = static_cast<int64_t>(p.version);
    pd["queued_bytes"] = static_cast<int64_t>(p.conn->queued_bytes());
    pd["clock_offset_seconds"] = p.offset.offset();
    add(p, pd);
    list.emplace_back(std::move(pd));
  }
  d[peers_key] = std::move(list);
  return d;
}

}  // namespace lfm::net
