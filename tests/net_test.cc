// Tests for the TCP transport runtime (src/net/): frame reassembly under
// adversarial fragmentation, the epoll event loop, connection plumbing, and
// an end-to-end master<->worker-process run over real loopback sockets with
// an injected connection drop.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "net/conn.h"
#include "net/event_loop.h"
#include "obs/collector.h"
#include "obs/http_export.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "net/framing.h"
#include "net/master_service.h"
#include "net/socket.h"
#include "net/worker_client.h"
#include "serde/json.h"
#include "serde/pickle.h"
#include "util/error.h"
#include "wq/protocol.h"
#include "wq/worker.h"

namespace lfm::net {
namespace {

wq::TaskMessage simple_task(uint64_t id) {
  wq::TaskMessage t;
  t.task_id = id;
  t.category = "net-test";
  t.command_line = "exit 0";
  t.allocation = alloc::Resources{1.0, 512e6, 1e9};
  return t;
}

std::vector<std::string> split_all(FrameSplitter& splitter) {
  std::vector<std::string> out;
  std::string message;
  while (splitter.next(message)) out.push_back(message);
  return out;
}

// --- FrameSplitter -----------------------------------------------------------

TEST(FrameSplitter, OneByteDripV2) {
  const std::string wire = wq::encode(simple_task(7), wq::WireVersion::kV2);
  FrameSplitter splitter;
  std::string message;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    splitter.feed(wire.data() + i, 1);
    EXPECT_FALSE(splitter.next(message)) << "complete at byte " << i;
  }
  splitter.feed(wire.data() + wire.size() - 1, 1);
  ASSERT_TRUE(splitter.next(message));
  EXPECT_EQ(message, wire);
  EXPECT_EQ(splitter.buffered(), 0u);
  EXPECT_FALSE(splitter.next(message));
}

TEST(FrameSplitter, OneByteDripV1) {
  const std::string wire = wq::encode(simple_task(9), wq::WireVersion::kV1);
  FrameSplitter splitter;
  std::string message;
  for (const char c : wire) splitter.feed(&c, 1);
  ASSERT_TRUE(splitter.next(message));
  EXPECT_EQ(message, wire);
  EXPECT_EQ(splitter.buffered(), 0u);
}

TEST(FrameSplitter, CoalescedMixedVersionsInOneFeed) {
  // Five messages of alternating dialects arriving as one TCP segment, the
  // per-message version re-detected from each first byte.
  wq::ResultMessage r;
  r.task_id = 3;
  r.payload = serde::Bytes{'e', 'n', 'd', '\n', 0xF7, 'Q', 2};  // traps naive scans
  const std::vector<std::string> wires = {
      wq::encode(simple_task(1), wq::WireVersion::kV2),
      wq::encode(simple_task(2), wq::WireVersion::kV1),
      wq::encode(r, wq::WireVersion::kV2),
      wq::encode_batch(std::vector<wq::TaskMessage>{simple_task(4), simple_task(5)},
                       wq::WireVersion::kV2),
      wq::encode(wq::ControlMessage{wq::ControlType::kPing, 1, 2.5},
                 wq::WireVersion::kV1),
  };
  std::string stream;
  for (const std::string& w : wires) stream += w;
  FrameSplitter splitter;
  splitter.feed(stream);
  const std::vector<std::string> out = split_all(splitter);
  ASSERT_EQ(out.size(), wires.size());
  for (size_t i = 0; i < wires.size(); ++i) EXPECT_EQ(out[i], wires[i]);
  EXPECT_EQ(splitter.buffered(), 0u);
}

TEST(FrameSplitter, FragmentBoundaryInsideHeader) {
  // Split inside the 4-byte fixed header and inside the length varint.
  const std::string wire = wq::encode(simple_task(11), wq::WireVersion::kV2);
  for (size_t cut = 1; cut < 6 && cut < wire.size(); ++cut) {
    FrameSplitter splitter;
    std::string message;
    splitter.feed(wire.data(), cut);
    EXPECT_FALSE(splitter.next(message));
    splitter.feed(wire.data() + cut, wire.size() - cut);
    ASSERT_TRUE(splitter.next(message)) << "cut at " << cut;
    EXPECT_EQ(message, wire);
  }
}

TEST(FrameSplitter, OversizedV2LengthRejectedFromHeaderAlone) {
  // 2^62-byte claimed body: must throw once the varint completes, without
  // waiting for (or buffering) any body bytes.
  const std::string header{'\xF7', 'Q', 2, 1,
                           '\xFF', '\xFF', '\xFF', '\xFF', '\xFF',
                           '\xFF', '\xFF', '\xFF', '\x3F'};
  FrameSplitter splitter;
  std::string message;
  EXPECT_THROW(
      {
        splitter.feed(header);
        splitter.next(message);
      },
      Error);
}

TEST(FrameSplitter, OversizedV1MessageRejected) {
  wq::set_max_frame_body_bytes(1024);
  FrameSplitter splitter;
  std::string message;
  const std::string line = "task 1 cat\n";  // never an "end" line
  EXPECT_THROW(
      {
        // The cap allows base64/overhead slack above the configured limit;
        // feed well past it.
        for (int i = 0; i < 2000; ++i) {
          splitter.feed(line);
          splitter.next(message);
        }
      },
      Error);
  wq::set_max_frame_body_bytes(0);
}

TEST(FrameSplitter, ManySmallMessagesUnderLimitPass) {
  // The v1 cap applies per message, not to the connection's total traffic.
  wq::set_max_frame_body_bytes(4096);
  FrameSplitter splitter;
  const std::string wire = wq::encode(wq::ControlMessage{}, wq::WireVersion::kV1);
  size_t delivered = 0;
  std::string message;
  for (int i = 0; i < 500; ++i) {
    splitter.feed(wire);
    while (splitter.next(message)) ++delivered;
  }
  EXPECT_EQ(delivered, 500u);
  wq::set_max_frame_body_bytes(0);
}

// --- EventLoop ---------------------------------------------------------------

TEST(EventLoop, TimersFireInDeadlineOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.run_after(0.03, [&] { order.push_back(3); });
  loop.run_after(0.01, [&] { order.push_back(1); });
  loop.run_after(0.02, [&] {
    order.push_back(2);
    loop.run_after(0.02, [&] {
      order.push_back(4);
      loop.stop();
    });
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventLoop, CancelledTimerNeverFires) {
  EventLoop loop;
  bool fired = false;
  const uint64_t id = loop.run_after(0.01, [&] { fired = true; });
  loop.cancel_timer(id);
  loop.run_after(0.03, [&] { loop.stop(); });
  loop.run();
  EXPECT_FALSE(fired);
}

TEST(EventLoop, RunEveryRepeatsUntilCancelled) {
  EventLoop loop;
  int fires = 0;
  uint64_t id = 0;
  id = loop.run_every(0.01, [&] {
    if (++fires == 3) {
      loop.cancel_timer(id);
      loop.run_after(0.03, [&] { loop.stop(); });
    }
  });
  loop.run();
  EXPECT_EQ(fires, 3);
}

TEST(EventLoop, PostFromAnotherThreadWakesLoop) {
  EventLoop loop;
  std::atomic<bool> ran{false};
  std::thread poster([&] {
    loop.post([&] {
      ran.store(true);
      loop.stop();
    });
  });
  loop.run();
  poster.join();
  EXPECT_TRUE(ran.load());
}

// --- Connection / Listener ---------------------------------------------------

TEST(Connection, EchoAcrossRealSockets) {
  EventLoop loop;
  Listener listener(loop, 0);
  std::vector<std::shared_ptr<Connection>> server_conns;
  listener.set_on_accept([&](int fd) {
    auto conn = std::make_shared<Connection>(loop, fd, 100);
    conn->set_on_message(
        [](Connection& c, std::string&& wire) { c.send(std::move(wire)); });
    server_conns.push_back(conn);
    conn->start();
  });
  listener.start();

  const int fd = connect_tcp("127.0.0.1", listener.port());
  ASSERT_GE(fd, 0);
  auto client = std::make_shared<Connection>(loop, fd, 1);
  std::vector<std::string> echoed;
  const std::vector<std::string> sent = {
      wq::encode(simple_task(1), wq::WireVersion::kV2),
      wq::encode(simple_task(2), wq::WireVersion::kV1),
      wq::encode(wq::ControlMessage{}, wq::WireVersion::kV2),
  };
  client->set_on_message([&](Connection&, std::string&& wire) {
    echoed.push_back(std::move(wire));
    if (echoed.size() == sent.size()) loop.stop();
  });
  client->start();
  for (const std::string& w : sent) client->send(w);
  loop.run_after(5.0, [&] { loop.stop(); });  // watchdog
  loop.run();
  EXPECT_EQ(echoed, sent);
  EXPECT_EQ(client->messages_out(), 3);
  EXPECT_EQ(client->messages_in(), 3);
  client->close("test done");
}

TEST(Connection, MidFrameEofReportedAsSuch) {
  EventLoop loop;
  Listener listener(loop, 0);
  std::string close_reason;
  std::shared_ptr<Connection> server;
  listener.set_on_accept([&](int fd) {
    server = std::make_shared<Connection>(loop, fd, 100);
    server->set_on_close([&](Connection&, const std::string& reason) {
      close_reason = reason;
      loop.stop();
    });
    server->start();
  });
  listener.start();

  const int fd = connect_tcp("127.0.0.1", listener.port());
  ASSERT_GE(fd, 0);
  // A v2 header promising 100 body bytes, then only 4, then close.
  const std::string partial{'\xF7', 'Q', 2, 1, 100, 'a', 'b', 'c', 'd'};
  ASSERT_EQ(::send(fd, partial.data(), partial.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(partial.size()));
  ::close(fd);
  loop.run_after(5.0, [&] { loop.stop(); });
  loop.run();
  EXPECT_EQ(close_reason, "mid-frame eof");
}

TEST(Connection, ProtocolErrorClosesWithDecoderMessage) {
  EventLoop loop;
  Listener listener(loop, 0);
  std::string close_reason;
  std::shared_ptr<Connection> server;
  listener.set_on_accept([&](int fd) {
    server = std::make_shared<Connection>(loop, fd, 100);
    server->set_on_close([&](Connection&, const std::string& reason) {
      close_reason = reason;
      loop.stop();
    });
    server->start();
  });
  listener.start();

  const int fd = connect_tcp("127.0.0.1", listener.port());
  ASSERT_GE(fd, 0);
  const std::string hostile{'\xF7', 'Q', 2, 1,
                            '\xFF', '\xFF', '\xFF', '\xFF', '\xFF',
                            '\xFF', '\xFF', '\xFF', '\x3F'};
  ASSERT_EQ(::send(fd, hostile.data(), hostile.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(hostile.size()));
  loop.run_after(5.0, [&] { loop.stop(); });
  loop.run();
  ::close(fd);
  EXPECT_NE(close_reason.find("exceeds"), std::string::npos);
}

// --- end-to-end: master process <-> forked worker processes ------------------

pid_t fork_worker(uint16_t port, const std::string& name,
                  wq::WireVersion version) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  // Drop inherited fds: a surviving copy of the master's listener keeps
  // its port accepting after the run drains (see net/socket.h).
  close_inherited_fds();
  int status = 1;
  try {
    WorkerClientOptions options;
    options.host = "127.0.0.1";
    options.port = port;
    options.name = name;
    options.wire_version = version;
    options.worker.poll_interval = 0.01;
    WorkerClient client(options);
    client.run();
    status = 0;
  } catch (...) {
  }
  _exit(status);
}

TEST(NetEndToEnd, PythonTasksMatchInProcessExecutionBitForBit) {
  const char* module = R"(
def mix(a, b):
    return {'sum': a + b, 'prod': a * b}
)";
  const int kTasks = 12;
  std::vector<std::pair<wq::TaskMessage, wq::FileSet>> specs;
  for (int i = 0; i < kTasks; ++i) {
    serde::ValueList args;
    args.push_back(serde::Value(int64_t{i}));
    args.push_back(serde::Value(int64_t{1000 + i}));
    specs.push_back(wq::make_python_task(100 + static_cast<uint64_t>(i), "mix",
                                         module, "mix",
                                         serde::Value(std::move(args)),
                                         alloc::Resources{1.0, 512e6, 1e9}));
  }
  // Reference run: the same messages through an in-process LocalWorker.
  std::vector<serde::Bytes> expected;
  {
    wq::LocalWorkerOptions wo;
    wo.poll_interval = 0.01;
    wq::LocalWorker direct(wo);
    for (const auto& [task, files] : specs) {
      const wq::ResultMessage r = direct.execute(task, files);
      ASSERT_EQ(r.exit_code, 0) << "task " << task.task_id;
      expected.push_back(r.payload);
    }
  }

  EventLoop loop;
  MasterServiceConfig config;
  config.tasks_per_worker = 4;
  MasterService master(loop, config);
  for (auto& [task, files] : specs) master.submit(task, files);

  // Two v2 workers and two v1 workers: version negotiation is live.
  std::vector<pid_t> workers;
  workers.push_back(fork_worker(master.port(), "w2a", wq::WireVersion::kV2));
  workers.push_back(fork_worker(master.port(), "w2b", wq::WireVersion::kV2));
  workers.push_back(fork_worker(master.port(), "w1a", wq::WireVersion::kV1));
  workers.push_back(fork_worker(master.port(), "w1b", wq::WireVersion::kV1));

  std::map<uint64_t, int> results_per_task;
  std::map<uint64_t, wq::ResultMessage> results;  // by task id
  master.set_on_result([&](const wq::ResultMessage& r) {
    results_per_task[r.task_id] += 1;
    results.emplace(r.task_id, r);
  });
  const NetMasterStats stats = master.run_until_complete(120.0);

  EXPECT_EQ(stats.tasks_completed, kTasks);
  EXPECT_EQ(results_per_task.size(), static_cast<size_t>(kTasks));
  for (const auto& [id, n] : results_per_task) {
    EXPECT_EQ(n, 1) << "task " << id << " reported " << n << " times";
  }
  ASSERT_EQ(results.size(), static_cast<size_t>(kTasks));
  for (int i = 0; i < kTasks; ++i) {
    const wq::ResultMessage& r = results.at(100 + static_cast<uint64_t>(i));
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_EQ(r.payload, expected[i]) << "payload differs for task " << r.task_id;
  }
  EXPECT_GE(stats.connections_accepted, 4);
  for (const pid_t pid : workers) {
    int status = -1;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
}

TEST(NetEndToEnd, DroppedConnectionRequeuesAndReconnects) {
  // One worker, four slow tasks dispatched as a batch. Dropping the
  // connection mid-execution loses the in-flight batch; the worker must
  // reconnect (chaos::RetryPolicy backoff) and the master must re-dispatch
  // every task, completing all of them exactly once.
  EventLoop loop;
  MasterService master(loop, {});
  const int kTasks = 4;
  for (int i = 0; i < kTasks; ++i) {
    wq::TaskMessage t = simple_task(200 + static_cast<uint64_t>(i));
    t.command_line = "sleep 0.15";
    master.submit(t);
  }
  const pid_t worker = fork_worker(master.port(), "flaky", wq::WireVersion::kV2);
  bool dropped = false;
  loop.run_after(0.25, [&] { dropped = master.drop_connection(0); });

  int result_events = 0;
  master.set_on_result([&](const wq::ResultMessage&) { ++result_events; });
  const NetMasterStats stats = master.run_until_complete(120.0);

  EXPECT_TRUE(dropped);
  EXPECT_EQ(stats.tasks_completed, kTasks);
  EXPECT_EQ(result_events, kTasks);
  // The whole in-flight batch came back to the queue...
  EXPECT_GE(stats.requeued_tasks, 1);
  // ...and the worker came back to the master.
  EXPECT_GE(stats.connections_accepted, 2);
  int status = -1;
  ASSERT_EQ(waitpid(worker, &status, 0), worker);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

// --- relay framing: the foreman hop must be a bit-transparent re-framer ------
// A fed::Foreman decodes batches off its root link, re-batches, and encodes
// toward its workers (and the reverse for results). These tests pin the
// invariant that hop depends on: decode(encode(x)) re-encodes to the exact
// same bytes, even when the inbound stream arrives one byte at a time or
// with an EOF in the middle of a frame.

wq::TaskMessage rich_task(uint64_t id) {
  wq::TaskMessage t;
  t.task_id = id;
  t.category = "relay-hop";
  t.command_line = "python lfm_wrapper.py fn.pkl args.pkl --seed 42";
  t.allocation = alloc::Resources{2.0, 1.5e9, 7e9};
  t.infiles.push_back({"fn.pkl", 1833, true});
  t.infiles.push_back({"args-" + std::to_string(id) + ".pkl", 96, false});
  t.outfiles.push_back("out-" + std::to_string(id) + ".pkl");
  return t;
}

TEST(RelayFraming, TaskBatchSurvivesDripFedRelayHopBitIdentical) {
  std::vector<wq::TaskMessage> tasks;
  for (uint64_t id = 40; id < 47; ++id) tasks.push_back(rich_task(id));
  const std::string wire = wq::encode_batch(tasks, wq::WireVersion::kV2);

  // Relay ingress: the root-link stream drips in one byte at a time.
  FrameSplitter splitter;
  std::vector<std::string> messages;
  for (char c : wire) {
    splitter.feed(&c, 1);
    std::string m;
    while (splitter.next(m)) messages.push_back(std::move(m));
  }
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_EQ(splitter.buffered(), 0u);
  EXPECT_EQ(messages[0], wire);

  // Relay egress: decode, re-batch, re-encode toward the shard's workers.
  const std::vector<wq::TaskMessage> decoded =
      wq::decode_task_batch(messages[0]);
  ASSERT_EQ(decoded.size(), tasks.size());
  EXPECT_EQ(wq::encode_batch(decoded, wq::WireVersion::kV2), wire);
}

TEST(RelayFraming, ResultBatchWithHostilePayloadRelaysBitIdentical) {
  // Payload bytes chosen to look like framing: the v2 magic pair, a v1
  // "end" terminator line, NULs and LFs. The relay must treat them as
  // opaque body bytes at every hop.
  std::vector<wq::ResultMessage> results;
  for (int i = 0; i < 5; ++i) {
    wq::ResultMessage r;
    r.task_id = 60 + static_cast<uint64_t>(i);
    r.exit_code = i == 3 ? 137 : 0;
    r.exhausted = i == 3;
    if (i == 3) r.exhausted_resource = "memory";
    r.cores_used = 1.75;
    r.memory_peak_bytes = 123456789 + i;
    r.disk_peak_bytes = 987654321;
    r.wall_seconds = 0.25 * i;
    const std::string hostile = std::string("\xF7Q\x02\x01") + '\0' +
                                "\nend\nresult 9 0\n" + '\0' + "\xF7Q";
    r.payload.assign(hostile.begin(), hostile.end());
    r.payload.push_back(static_cast<uint8_t>(i));
    results.push_back(std::move(r));
  }
  const std::string wire = wq::encode_batch(results, wq::WireVersion::kV2);

  FrameSplitter splitter;
  std::vector<std::string> messages;
  for (char c : wire) {
    splitter.feed(&c, 1);
    std::string m;
    while (splitter.next(m)) messages.push_back(std::move(m));
  }
  ASSERT_EQ(messages.size(), 1u);
  ASSERT_EQ(messages[0], wire);

  const std::vector<wq::ResultMessage> decoded =
      wq::decode_result_batch(messages[0]);
  ASSERT_EQ(decoded.size(), results.size());
  for (size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(decoded[i].payload, results[i].payload) << "result " << i;
  }
  EXPECT_EQ(wq::encode_batch(decoded, wq::WireVersion::kV2), wire);
}

TEST(RelayFraming, MidFrameEofAtRelayHopKeepsPartialBufferedThenCompletes) {
  const std::string wire = wq::encode_batch(
      std::vector<wq::TaskMessage>{rich_task(70), rich_task(71)},
      wq::WireVersion::kV2);
  // The upstream link stalls (or dies) with the frame split anywhere at
  // all: no partial message may ever be surfaced, and the buffered byte
  // count must expose the dirtiness of an EOF at that point.
  for (size_t cut : {size_t{1}, size_t{3}, size_t{5}, wire.size() / 2,
                     wire.size() - 1}) {
    FrameSplitter splitter;
    splitter.feed(wire.data(), cut);
    std::string m;
    EXPECT_FALSE(splitter.next(m)) << "cut at " << cut;
    EXPECT_EQ(splitter.buffered(), cut) << "cut at " << cut;
    // The peer recovers and sends the rest: the reassembled message is
    // byte-identical to an unfragmented delivery.
    splitter.feed(wire.data() + cut, wire.size() - cut);
    ASSERT_TRUE(splitter.next(m)) << "cut at " << cut;
    EXPECT_EQ(m, wire) << "cut at " << cut;
    EXPECT_EQ(splitter.buffered(), 0u);
    EXPECT_EQ(wq::encode_batch(wq::decode_task_batch(m), wq::WireVersion::kV2),
              wire);
  }
}

// --- reconnect budget semantics ---------------------------------------------

TEST(WorkerClient, AcceptThenDropFlappingMasterExhaustsBudget) {
  // A "master" that accepts every connection and immediately hangs up — a
  // crash-looping service or a misrouted port. The TCP accepts must NOT
  // replenish the reconnect budget (only completed tasks do), so the
  // client gives up instead of flapping forever.
  const int lfd = listen_tcp(0);
  const uint16_t port = local_port(lfd);
  std::atomic<bool> done{false};
  std::thread flapper([&] {
    while (!done.load()) {
      const int fd = ::accept(lfd, nullptr, nullptr);
      if (fd >= 0) {
        ::close(fd);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });

  WorkerClientOptions options;
  options.host = "127.0.0.1";
  options.port = port;
  options.name = "flap-victim";
  options.max_reconnect_attempts = 3;
  chaos::RetryPolicy fast;
  fast.backoff_base = 0.001;
  fast.backoff_max = 0.005;
  options.reconnect = fast;
  options.idle_timeout = 0.25;  // safety net if the drop is never noticed
  WorkerClient client(options);
  const int64_t executed = client.run();  // must return, not hang or throw

  EXPECT_EQ(executed, 0);
  EXPECT_TRUE(client.gave_up());
  EXPECT_GE(client.failures_since_progress(), options.max_reconnect_attempts);
  done.store(true);
  flapper.join();
  ::close(lfd);
}

TEST(WorkerClient, TaskCompletionRestoresReconnectBudget) {
  // The flip side: a worker whose budget is tiny (2) survives five
  // injected disconnects because each completed task resets the count.
  // Without the reset, failures would accumulate across drops and the
  // worker would give up mid-run.
  EventLoop loop;
  MasterServiceConfig config;
  config.tasks_per_worker = 1;  // one task per dispatch: drop between tasks
  MasterService master(loop, config);
  const int kTasks = 6;
  for (int i = 0; i < kTasks; ++i) {
    master.submit(simple_task(300 + static_cast<uint64_t>(i)));
  }

  const pid_t pid = fork();
  if (pid == 0) {
    close_inherited_fds();
    int status = 1;
    try {
      WorkerClientOptions options;
      options.host = "127.0.0.1";
      options.port = master.port();
      options.name = "budget-2";
      options.max_reconnect_attempts = 2;
      chaos::RetryPolicy fast;
      fast.backoff_base = 0.001;
      fast.backoff_max = 0.005;
      options.reconnect = fast;
      options.worker.poll_interval = 0.01;
      WorkerClient client(options);
      client.run();
      status = client.gave_up() ? 2 : 0;
    } catch (...) {
    }
    _exit(status);
  }

  int results_seen = 0;
  master.set_on_result([&](const wq::ResultMessage&) {
    if (++results_seen < kTasks) master.drop_connection(0);
  });
  const NetMasterStats stats = master.run_until_complete(120.0);

  EXPECT_EQ(stats.tasks_completed, kTasks);
  EXPECT_EQ(results_seen, kTasks);
  // Five drops, each answered by a fresh accept: 6 connections minimum,
  // which is strictly more than the budget of 2 — only the
  // completion-resets rule lets the worker get this far.
  EXPECT_GE(stats.connections_accepted, kTasks);
  int status = -1;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "worker exit status " << status;
}

// --- live telemetry endpoints -----------------------------------------------

// Blocking HTTP/1.0 fetch from a side thread while the loop serves; the
// thread stops the loop once the server closes the connection.
std::string http_get(EventLoop& loop, uint16_t port, const std::string& target,
                     const std::string& method = "GET") {
  std::string response;
  std::thread fetcher([&] {
    const int fd = connect_tcp("127.0.0.1", port);
    if (fd < 0) {
      loop.post([&loop] { loop.stop(); });
      return;
    }
    const std::string req =
        method + " " + target + " HTTP/1.0\r\nHost: test\r\n\r\n";
    size_t off = 0;
    while (off < req.size()) {
      const ssize_t n = ::send(fd, req.data() + off, req.size() - off, 0);
      if (n <= 0) break;
      off += static_cast<size_t>(n);
    }
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
      response.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    loop.post([&loop] { loop.stop(); });
  });
  const uint64_t watchdog = loop.run_after(10.0, [&] { loop.stop(); });
  loop.run();
  loop.cancel_timer(watchdog);
  fetcher.join();
  return response;
}

TEST(HttpEndpointTest, ServesMetricsHealthzAndStatusz) {
  EventLoop loop;
  obs::Metrics metrics;
  metrics.counter("net.results").add(42);
  metrics.gauge("net.write_queue_bytes").set(7.0);
  obs::HttpEndpointConfig hc;
  hc.metrics = &metrics;
  hc.statusz = [] {
    serde::ValueDict status;
    status["role"] = serde::Value(std::string("test-master"));
    status["pending"] = serde::Value(int64_t{3});
    return serde::Value(std::move(status));
  };
  obs::HttpEndpoint http(loop, hc);
  ASSERT_GT(http.port(), 0);

  const std::string metrics_rsp = http_get(loop, http.port(), "/metrics");
  EXPECT_NE(metrics_rsp.find("200"), std::string::npos);
  EXPECT_NE(metrics_rsp.find("net_results 42"), std::string::npos);
  EXPECT_NE(metrics_rsp.find("# TYPE"), std::string::npos);

  const std::string health_rsp = http_get(loop, http.port(), "/healthz");
  EXPECT_NE(health_rsp.find("200"), std::string::npos);
  EXPECT_NE(health_rsp.find("ok"), std::string::npos);

  const std::string status_rsp = http_get(loop, http.port(), "/statusz");
  EXPECT_NE(status_rsp.find("200"), std::string::npos);
  const size_t body_at = status_rsp.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const serde::Value doc = serde::from_json(status_rsp.substr(body_at + 4));
  EXPECT_EQ(doc.as_dict().at("role").as_str(), "test-master");
  EXPECT_EQ(doc.as_dict().at("pending").as_int(), 3);

  EXPECT_NE(http_get(loop, http.port(), "/nope").find("404"),
            std::string::npos);
  EXPECT_NE(http_get(loop, http.port(), "/metrics", "POST").find("405"),
            std::string::npos);
  EXPECT_EQ(http.requests_served(), 5);
}

TEST(HttpEndpointTest, BindConflictThrowsInsteadOfTimingOut) {
  EventLoop loop;
  obs::HttpEndpointConfig hc;
  obs::HttpEndpoint first(loop, hc);
  obs::HttpEndpointConfig clash;
  clash.port = first.port();
  EXPECT_THROW(obs::HttpEndpoint(loop, clash), Error);
}

// --- distributed tracing: two processes, one timeline ------------------------

pid_t fork_traced_worker(uint16_t port, const std::string& name) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  close_inherited_fds();
  int status = 1;
  try {
    obs::Recorder::global().set_enabled(true);
    obs::Recorder::global().clear();
    WorkerClientOptions options;
    options.host = "127.0.0.1";
    options.port = port;
    options.name = name;
    options.worker.poll_interval = 0.01;
    WorkerClient client(options);
    client.run();
    status = 0;
  } catch (...) {
  }
  _exit(status);
}

TEST(NetEndToEnd, ForkedWorkerSpansMergeIntoOneNestedTimeline) {
  const char* module = R"(
def double(x):
    return 2 * x
)";
  obs::Recorder::global().set_enabled(true);
  obs::Recorder::global().clear();

  obs::Collector collector;
  EventLoop loop;
  MasterServiceConfig config;
  config.on_telemetry = [&](wq::TelemetryMessage&& msg) {
    collector.add(msg.source, msg.clock_offset, std::move(msg.events),
                  msg.dropped);
  };
  MasterService master(loop, config);
  const int kTasks = 6;
  for (int i = 0; i < kTasks; ++i) {
    auto [task, files] = wq::make_python_task(
        700 + static_cast<uint64_t>(i), "double", module, "double",
        serde::Value(serde::ValueList{serde::Value(int64_t{i})}),
        alloc::Resources{1.0, 512e6, 1e9});
    master.submit(task, files);
  }
  const pid_t worker = fork_traced_worker(master.port(), "traced-w");
  const NetMasterStats stats = master.run_until_complete(120.0);
  int status = -1;
  ASSERT_EQ(waitpid(worker, &status, 0), worker);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(stats.tasks_completed, kTasks);
  EXPECT_GE(stats.telemetry_frames, 1);

  collector.add_local("master", obs::Recorder::global().drain_events());
  obs::Recorder::global().set_enabled(false);
  obs::Recorder::global().clear();

  // Group the merged, clock-normalized spans by trace id. At least one
  // task's id must appear in both process lanes with the worker's lfm.run
  // span nested inside the master's task span. (A task CAN legitimately
  // run twice — at-least-once attempts — so we require one cleanly nested
  // id, not that every id is.)
  struct PerTrace {
    double task_begin = 0.0, task_end = 0.0;
    bool has_task = false;
    std::vector<double> run_begin, run_end;
    std::map<uint64_t, int> lanes;
  };
  std::map<uint64_t, PerTrace> traces;
  for (const auto& ev : collector.events()) {
    if (ev.trace_id == 0) continue;
    PerTrace& t = traces[ev.trace_id];
    ++t.lanes[ev.pid];
    if (ev.ph == 'X' && ev.name == "task") {
      t.has_task = true;
      t.task_begin = ev.ts;
      t.task_end = ev.ts + ev.dur;
    }
    // End events travel nameless (Chrome-trace convention: E closes the
    // innermost open B on its lane); only the worker emits B/E here.
    if (ev.ph == 'B' && ev.name == "lfm.run") t.run_begin.push_back(ev.ts);
    if (ev.ph == 'E') t.run_end.push_back(ev.ts);
  }
  EXPECT_EQ(traces.size(), static_cast<size_t>(kTasks));
  const double kSkewTolerance = 1e-3;  // clock alignment is RTT/2-bounded
  int nested = 0;
  for (const auto& [id, t] : traces) {
    if (!t.has_task || t.lanes.size() < 2) continue;
    // A run produces nested lfm.run B/E pairs (the worker's dispatch span
    // and the monitor's inner span); the outermost window is what the
    // master's task span must contain.
    if (t.run_begin.empty() || t.run_end.empty()) continue;
    const double run_first =
        *std::min_element(t.run_begin.begin(), t.run_begin.end());
    const double run_last =
        *std::max_element(t.run_end.begin(), t.run_end.end());
    if (t.task_begin - kSkewTolerance <= run_first && run_first <= run_last &&
        run_last <= t.task_end + kSkewTolerance) {
      ++nested;
    }
  }
  EXPECT_GE(nested, 1) << "no trace id produced a cleanly nested "
                          "master-task / worker-run span pair";
}

TEST(WorkerClient, GivesUpWhenMasterNeverAppears) {
  WorkerClientOptions options;
  options.host = "127.0.0.1";
  options.port = 1;  // nothing listens here
  options.name = "orphan";
  options.max_reconnect_attempts = 2;
  chaos::RetryPolicy fast;
  fast.backoff_base = 0.001;
  fast.backoff_max = 0.002;
  options.reconnect = fast;
  // The give-up is a counter, not only a WARN line. A worker records into
  // the process-wide registry while the recorder is enabled.
  obs::Recorder& rec = obs::Recorder::global();
  rec.set_enabled(true);
  obs::Counter& give_ups = rec.metrics().counter("worker.reconnect_give_ups");
  const int64_t before = give_ups.value();
  WorkerClient client(options);
  EXPECT_THROW(client.run(), Error);
  EXPECT_EQ(give_ups.value() - before, 1);
  rec.set_enabled(false);
  rec.clear();
}

TEST(MasterService, OnResultCallbackMaySubmitAndStillReadItsResult) {
  // A callback that submits more work grows the master's result table. The
  // result it was handed must stay readable after the submit: it used to
  // point into that table, and the growth freed it (caught by ASan).
  EventLoop loop;
  MasterService master(loop, {});
  const uint64_t kTasks = 40;
  uint64_t next_id = 1;
  master.submit(simple_task(next_id++));
  std::vector<uint64_t> seen;
  const serde::Bytes ok{'o', 'k'};
  master.set_on_result([&](const wq::ResultMessage& r) {
    if (next_id <= kTasks) master.submit(simple_task(next_id++));
    seen.push_back(r.task_id);
    EXPECT_EQ(r.payload, ok);
  });
  std::thread worker([port = master.port(), ok] {
    WorkerClientOptions options;
    options.port = port;
    options.name = "echo";
    options.echo_results = true;
    options.echo_payload = ok;
    WorkerClient client(options);
    client.run();
  });
  const NetMasterStats stats = master.run_until_complete(60.0);
  worker.join();
  EXPECT_EQ(stats.tasks_completed, static_cast<int64_t>(kTasks));
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), kTasks);
  for (uint64_t i = 0; i < kTasks; ++i) EXPECT_EQ(seen[i], i + 1);
}

// A raw worker on the test's own loop: says hello, records every task
// dispatched to it, and answers each with an "ok" result when `answer`.
struct RawWorker {
  RawWorker(EventLoop& loop, uint16_t port, uint64_t id, const std::string& name,
            bool answer)
      : conn(std::make_shared<Connection>(loop, connect_tcp("127.0.0.1", port), id)) {
    conn->set_on_message([this, answer](Connection& c, std::string&& wire) {
      const wq::MessageKind kind = wq::classify(wire);
      if (kind != wq::MessageKind::kTask && kind != wq::MessageKind::kTaskBatch) return;
      for (const wq::TaskMessage& t : wq::decode_task_batch(wire)) {
        tasks.push_back(t.task_id);
        if (answer) c.send(result_for(t.task_id));
      }
    });
    conn->start();
    conn->send(wq::encode(wq::HelloMessage{name, wq::WireVersion::kV2, {1.0, 1e9, 1e9}},
                          wq::WireVersion::kV2));
  }
  ~RawWorker() {
    if (!conn->closed()) conn->close("test done");
  }
  static std::string result_for(uint64_t task_id) {
    wq::ResultMessage r;
    r.task_id = task_id;
    r.payload = {'o', 'k'};
    return wq::encode(r, wq::WireVersion::kV2);
  }
  std::shared_ptr<Connection> conn;
  std::vector<uint64_t> tasks;
};

// Run `loop` until `done()` holds (checked every 2 ms) or 10 s pass.
void run_until(EventLoop& loop, const std::function<bool()>& done) {
  const double deadline = EventLoop::now() + 10.0;
  const uint64_t timer = loop.run_every(0.002, [&] {
    if (done() || EventLoop::now() > deadline) loop.stop();
  });
  loop.run();
  loop.cancel_timer(timer);
}

TEST(MasterService, PersistentServiceForgetsFinishedWorkButCountsDuplicates) {
  // A persistent service runs for as long as its owner feeds it, so it must
  // hold memory for work in flight only: after every task has completed, no
  // ledger entry and no staged input may remain. The done record outlives
  // the entries: a re-dispatched task's second result is still a duplicate.
  EventLoop loop;
  MasterServiceConfig config;
  config.persistent = true;
  MasterService master(loop, config);
  const uint64_t kTasks = 6;
  for (uint64_t id = 1; id <= kTasks; ++id) {
    wq::TaskMessage t = simple_task(id);
    const std::string name = "in-" + std::to_string(id) + ".pkl";
    t.infiles.push_back({name, 3, false});
    master.submit(t, wq::FileSet{{name, serde::Bytes{'a', 'b', 'c'}}});
  }
  std::map<uint64_t, int> reported;
  master.set_on_result([&](const wq::ResultMessage& r) { reported[r.task_id] += 1; });
  EXPECT_EQ(master.pending(), kTasks);
  EXPECT_EQ(master.staged(), kTasks);

  // The first worker takes every task and goes quiet; its link drops and
  // the tasks are re-dispatched to a second worker, which completes them.
  RawWorker stalled(loop, master.port(), 1, "stalled", /*answer=*/false);
  run_until(loop, [&] { return stalled.tasks.size() == kTasks; });
  ASSERT_EQ(stalled.tasks.size(), kTasks);
  ASSERT_TRUE(master.drop_connection(0));
  RawWorker healthy(loop, master.port(), 2, "healthy", /*answer=*/true);
  run_until(loop, [&] { return reported.size() == kTasks; });
  ASSERT_EQ(reported.size(), kTasks);
  EXPECT_EQ(master.pending(), 0u);
  EXPECT_EQ(master.staged(), 0u);
  EXPECT_GE(master.stats().requeued_tasks, static_cast<int64_t>(kTasks));

  // The stalled worker comes back and reports its first attempt late.
  RawWorker late(loop, master.port(), 3, "stalled", /*answer=*/false);
  late.conn->send(RawWorker::result_for(stalled.tasks.front()));
  run_until(loop, [&] { return master.stats().duplicate_results == 1; });
  const NetMasterStats stats = master.stats();
  EXPECT_EQ(stats.duplicate_results, 1);
  EXPECT_EQ(stats.tasks_completed, static_cast<int64_t>(kTasks));
  for (const auto& [id, n] : reported) EXPECT_EQ(n, 1) << "task " << id;
  EXPECT_EQ(master.pending(), 0u);
  master.shutdown();
}

TEST(MasterService, ResubmittedTaskRunsAgainOnlyOnceItHasCompleted) {
  // A relay tier gets a task again when the tier above requeues it. If the
  // first attempt already completed here, its result may have been lost
  // upstream, so the task runs and reports again; if it is still pending,
  // that attempt's result is the one to report and nothing is added.
  EventLoop loop;
  MasterServiceConfig config;
  config.persistent = true;
  MasterService master(loop, config);
  const std::string name = "in.pkl";
  const auto submit = [&] {
    wq::TaskMessage t = simple_task(7);
    t.infiles.push_back({name, 3, false});
    master.submit(t, wq::FileSet{{name, serde::Bytes{'a', 'b', 'c'}}});
  };
  std::map<uint64_t, int> reported;
  master.set_on_result([&](const wq::ResultMessage& r) { reported[r.task_id] += 1; });

  submit();
  submit();  // still pending: no second entry, no second dispatch
  EXPECT_EQ(master.pending(), 1u);
  EXPECT_EQ(master.staged(), 1u);
  RawWorker worker(loop, master.port(), 1, "w", /*answer=*/true);
  run_until(loop, [&] { return reported[7] == 1; });
  EXPECT_EQ(worker.tasks.size(), 1u);
  EXPECT_EQ(master.pending(), 0u);
  EXPECT_EQ(master.staged(), 0u);

  submit();  // completed here: pending again, dispatched and reported again
  EXPECT_EQ(master.pending(), 1u);
  run_until(loop, [&] { return reported[7] == 2; });
  EXPECT_EQ(reported[7], 2);
  EXPECT_EQ(worker.tasks.size(), 2u);
  EXPECT_EQ(master.pending(), 0u);
  EXPECT_EQ(master.staged(), 0u);
  EXPECT_EQ(master.stats().duplicate_results, 0);
  master.shutdown();
}

}  // namespace
}  // namespace lfm::net
