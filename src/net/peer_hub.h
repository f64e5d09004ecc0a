// PeerHub: the server half every dispatch tier shares (DESIGN.md §13-§14).
//
// A net::MasterService serves workers and a fed::RootMaster serves foremen,
// but both speak one protocol to their peers, so both derive from the hub,
// which owns everything that is not dispatch policy:
//
// - the listener and one record per accepted link, whose hello pins the
//   wire version spoken to that peer (version negotiation);
// - ping/pong: RTT histogram and a per-link clock-offset estimate, which
//   kTelemetry frames accumulate hop by hop on their way up the tree;
// - result frames, completed exactly once through the DoneLedger;
// - one heartbeat and idle policy: a link with work in flight is neither
//   pinged nor idle-closed — a worker inside a synchronous LFM execution
//   reads nothing, and a ping backlog would look like death — while a
//   silent idle link is closed after idle_timeout, so a dead peer cannot
//   hold the run hostage;
// - the backpressure gate: no work for a link whose unsent backlog is past
//   the high watermark (a peer that stops reading stops receiving, not the
//   whole master);
// - the bye/finish sequence, byte totals, and the common statusz fields.
//
// A tier supplies its policy through the virtual hooks: which work goes to
// which peer, what a completion settles, what a lost link requeues.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "net/conn.h"
#include "net/done_ledger.h"
#include "net/event_loop.h"
#include "obs/clock.h"
#include "serde/value.h"
#include "wq/protocol.h"

namespace lfm::net {

// Listener and link settings common to every tier's config.
struct PeerHubConfig {
  uint16_t port = 0;  // 0 = ephemeral; read back via port()
  std::string bind_addr = "127.0.0.1";
  // Task dispatches coalesced into one v2 batch frame per send.
  size_t max_batch = 64;
  // Stop assigning work to a link whose unsent backlog exceeds this.
  size_t write_high_watermark = 4u << 20;
  double heartbeat_interval = 2.0;  // ping links without work this often
  // Close a link without work after this much silence (0 = off).
  double idle_timeout = 30.0;
  // Metrics sink. Null records into the process-wide registry gated on
  // obs::Recorder::enabled() (the historical behaviour); non-null records
  // unconditionally into the given instance, which is how co-hosted fed
  // components keep their series apart (obs::Metrics prefixes).
  obs::Metrics* metrics = nullptr;
};

// Link traffic, including links still open.
struct LinkTotals {
  int64_t connections_accepted = 0;
  int64_t disconnects = 0;
  int64_t files_sent = 0;
  int64_t bytes_sent = 0;
  int64_t bytes_received = 0;
  int64_t messages_sent = 0;
  int64_t messages_received = 0;
  int64_t telemetry_frames = 0;  // kTelemetry frames received
};

// One accepted link: a worker of a MasterService or a foreman of a
// RootMaster.
struct Peer {
  std::shared_ptr<Connection> conn;
  bool helloed = false;
  wq::WireVersion version = wq::WireVersion::kV2;
  std::string name;
  std::set<size_t> work;        // the tier's indices in flight on this link
  std::set<std::string> files;  // cacheable files already shipped here
  wq::StatsMessage stats;       // last kStats frame (foreman links)
  double last_ping_sent = 0.0;
  uint64_t ping_nonce = 0;
  obs::ClockOffsetEstimator offset;  // peer clock minus local clock
  bool live() const { return helloed && !conn->closed(); }
};

class PeerHub {
 public:
  PeerHub(const PeerHub&) = delete;  // callbacks hold `this`
  PeerHub& operator=(const PeerHub&) = delete;

  uint16_t port() const { return listener_.port(); }

  // Fires once per completed task, on the loop thread (not for tasks that
  // recover() marked done). This is the only way results leave the tier:
  // the ledger forgets a task once it completes. The result is only valid
  // during the call; the callback may submit more work.
  void set_on_result(std::function<void(const wq::ResultMessage&)> fn) {
    ledger_.set_on_result(std::move(fn));
  }

  // End the run: send bye to every peer, close links after their write
  // queues flush, and stop the loop once the last one is gone. Idempotent.
  void shutdown();

 protected:
  using TelemetrySink = std::function<void(wq::TelemetryMessage&&)>;

  // `tier` names the metrics ("net", "fed"). A `persistent` hub never
  // finishes on a drained ledger: more work may arrive from above, so only
  // shutdown() ends the run. `telemetry` receives kTelemetry frames with
  // this link's clock offset added; null drops them (counted).
  PeerHub(EventLoop& loop, const PeerHubConfig& config, const char* tier,
          bool persistent, chaos::Journal* journal, TelemetrySink telemetry);
  virtual ~PeerHub();

  // Offer work to `peer` (after its hello or a result frame), or to every
  // peer when null (after a link is lost).
  virtual void dispatch(Peer* peer) = 0;
  // Dispatch bookkeeping for a task the ledger just marked done.
  virtual void settle(Peer& peer, size_t index) = 0;
  // A link is gone: requeue `peer.work`.
  virtual void lost(Peer& peer, const std::string& reason) = 0;
  // A kStats frame; by default an unexpected one, which closes the link.
  virtual void on_stats(Peer& peer, const wq::StatsMessage& msg);

  // True when `peer` is live, has fewer than `depth` items in flight, and
  // is not backpressured.
  bool can_take(Peer& peer, size_t depth);
  // Ship a staged file unless it is cacheable and already on this link.
  void send_file(Peer& peer, const std::string& name, bool cacheable,
                 const serde::Bytes& content);
  // Ship the ledger's tasks at `indices`, up to max_batch per frame (a v2
  // batch frame when the peer speaks v2), stamping their dispatch time.
  void send_tasks(Peer& peer, const std::vector<size_t>& indices);
  // Abruptly close the k-th (by accept order) live link, as a network fault
  // would. Returns false if no such link.
  bool drop(size_t k);
  int connected() const;
  // Run the loop until the ledger drains and every link has said goodbye.
  // Throws lfm::Error if `timeout` (> 0) seconds elapse first.
  void run_until_complete(double timeout);
  LinkTotals totals() const;
  // Common /statusz fields plus one entry per link under `peers_key`;
  // `add` contributes the tier's per-link fields.
  serde::ValueDict statusz(
      const char* peers_key,
      const std::function<void(const Peer&, serde::ValueDict&)>& add) const;

  TierMetrics metrics_;
  DoneLedger ledger_;
  std::map<uint64_t, Peer> peers_;  // accept order == key order

 private:
  void send(Peer& peer, std::string frame);
  void on_accept(int fd);
  void on_message(uint64_t id, Connection& conn, std::string&& wire);
  void on_control(Peer& peer, const std::string& wire);
  void handle_close(uint64_t id, const std::string& reason);
  void heartbeat();
  void begin_finish();
  void check_finished();
  void absorb(const Connection& conn);

  EventLoop& loop_;
  PeerHubConfig settings_;
  bool persistent_;
  TelemetrySink telemetry_;
  Listener listener_;
  uint64_t next_id_ = 1;
  bool finishing_ = false;
  bool timed_out_ = false;
  uint64_t heartbeat_timer_ = 0;
  LinkTotals totals_;  // closed links only; totals() adds the live ones
};

}  // namespace lfm::net
