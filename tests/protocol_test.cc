// Tests for the Work Queue wire protocol codec, both wire versions.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "wq/protocol.h"

namespace lfm::wq {
namespace {

TaskMessage sample_task() {
  TaskMessage msg;
  msg.task_id = 42;
  msg.category = "hep-analysis";
  msg.command_line = "python lfm_wrapper.py fn.pkl 'arg one' --flag";
  msg.allocation = alloc::Resources{2.0, 1500000000.0, 2000000000.0};
  msg.infiles.push_back({"hep-conda-env.tar.gz", 240000000, true});
  msg.infiles.push_back({"events-00001.root", 500000, false});
  msg.outfiles.push_back("hist-00001.pkl");
  return msg;
}

ResultMessage sample_result() {
  ResultMessage msg;
  msg.task_id = 7;
  msg.exit_code = 0;
  msg.cores_used = 1.85;
  msg.memory_peak_bytes = 88000000;
  msg.disk_peak_bytes = 880000000;
  msg.wall_seconds = 63.25;
  msg.payload = serde::Bytes{0x00, 0xFF, 0x7A, 0x0A, 0x20, 0xF7};
  return msg;
}

class ProtocolBothVersions : public ::testing::TestWithParam<WireVersion> {};

INSTANTIATE_TEST_SUITE_P(Versions, ProtocolBothVersions,
                         ::testing::Values(WireVersion::kV1, WireVersion::kV2));

TEST_P(ProtocolBothVersions, TaskRoundtrip) {
  const TaskMessage original = sample_task();
  const std::string wire = encode(original, GetParam());
  EXPECT_EQ(detect_version(wire), GetParam());
  const TaskMessage back = decode_task(wire);
  EXPECT_EQ(back.task_id, 42u);
  EXPECT_EQ(back.category, "hep-analysis");
  EXPECT_EQ(back.command_line, original.command_line);
  EXPECT_DOUBLE_EQ(back.allocation.cores, 2.0);
  EXPECT_DOUBLE_EQ(back.allocation.memory_bytes, 1.5e9);
  ASSERT_EQ(back.infiles.size(), 2u);
  EXPECT_EQ(back.infiles[0].name, "hep-conda-env.tar.gz");
  EXPECT_EQ(back.infiles[0].size_bytes, 240000000);
  EXPECT_TRUE(back.infiles[0].cacheable);
  EXPECT_FALSE(back.infiles[1].cacheable);
  ASSERT_EQ(back.outfiles.size(), 1u);
  EXPECT_EQ(back.outfiles[0], "hist-00001.pkl");
}

TEST_P(ProtocolBothVersions, ResultRoundtrip) {
  const ResultMessage msg = sample_result();
  const std::string wire = encode(msg, GetParam());
  EXPECT_EQ(detect_version(wire), GetParam());
  const ResultMessage back = decode_result(wire);
  EXPECT_EQ(back.task_id, 7u);
  EXPECT_EQ(back.exit_code, 0);
  EXPECT_FALSE(back.exhausted);
  EXPECT_DOUBLE_EQ(back.cores_used, 1.85);
  EXPECT_EQ(back.memory_peak_bytes, 88000000);
  EXPECT_DOUBLE_EQ(back.wall_seconds, 63.25);
  EXPECT_EQ(back.payload, msg.payload);
}

TEST_P(ProtocolBothVersions, ExhaustionReport) {
  ResultMessage msg;
  msg.task_id = 9;
  msg.exit_code = -1;
  msg.exhausted = true;
  msg.exhausted_resource = "memory";
  msg.wall_seconds = 10.0;
  const ResultMessage back = decode_result(encode(msg, GetParam()));
  EXPECT_TRUE(back.exhausted);
  EXPECT_EQ(back.exhausted_resource, "memory");
  EXPECT_EQ(back.exit_code, -1);
}

TEST_P(ProtocolBothVersions, CommandEscaping) {
  TaskMessage msg = sample_task();
  msg.command_line = "sh -c 'echo 100% done\ttab\nnewline'";
  const TaskMessage back = decode_task(encode(msg, GetParam()));
  EXPECT_EQ(back.command_line, msg.command_line);
}

TEST_P(ProtocolBothVersions, EncodedSizeMatchesEncode) {
  const TaskMessage t = sample_task();
  const ResultMessage r = sample_result();
  EXPECT_EQ(encoded_size(t, GetParam()), encode(t, GetParam()).size());
  EXPECT_EQ(encoded_size(r, GetParam()), encode(r, GetParam()).size());
}

TEST_P(ProtocolBothVersions, RejectsInvalidTokens) {
  TaskMessage msg = sample_task();
  msg.category = "has space";
  EXPECT_THROW(encode(msg, GetParam()), Error);
  msg = sample_task();
  msg.infiles[0].name = "bad\nname";
  EXPECT_THROW(encode(msg, GetParam()), Error);
}

TEST_P(ProtocolBothVersions, TaskBatchRoundtrip) {
  std::vector<TaskMessage> batch;
  for (int i = 0; i < 5; ++i) {
    TaskMessage msg = sample_task();
    msg.task_id = 100 + static_cast<uint64_t>(i);
    msg.command_line = "run step " + std::to_string(i);
    batch.push_back(std::move(msg));
  }
  const std::vector<TaskMessage> back = decode_task_batch(encode_batch(batch, GetParam()));
  ASSERT_EQ(back.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(back[static_cast<size_t>(i)].task_id, 100u + static_cast<uint64_t>(i));
    EXPECT_EQ(back[static_cast<size_t>(i)].command_line, "run step " + std::to_string(i));
  }
}

TEST_P(ProtocolBothVersions, ResultBatchRoundtrip) {
  std::vector<ResultMessage> batch;
  for (int i = 0; i < 4; ++i) {
    ResultMessage msg = sample_result();
    msg.task_id = 200 + static_cast<uint64_t>(i);
    batch.push_back(std::move(msg));
  }
  const std::vector<ResultMessage> back =
      decode_result_batch(encode_batch(batch, GetParam()));
  ASSERT_EQ(back.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(back[static_cast<size_t>(i)].task_id, 200u + static_cast<uint64_t>(i));
    EXPECT_EQ(back[static_cast<size_t>(i)].payload, sample_result().payload);
  }
}

TEST_P(ProtocolBothVersions, SingleMessageDecodesAsBatchOfOne) {
  const std::vector<TaskMessage> back =
      decode_task_batch(encode(sample_task(), GetParam()));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].task_id, 42u);
}

// A v1 peer and a v2 peer exchange the same logical messages: encoding in
// one version and re-encoding the decoded message in the other must be
// lossless in both directions.
TEST(Protocol, CrossVersionDecode) {
  const TaskMessage t = sample_task();
  const TaskMessage via_v1 = decode_task(encode(t, WireVersion::kV1));
  const TaskMessage via_v2 = decode_task(encode(via_v1, WireVersion::kV2));
  EXPECT_EQ(via_v2.task_id, t.task_id);
  EXPECT_EQ(via_v2.command_line, t.command_line);
  EXPECT_EQ(encode(via_v2, WireVersion::kV1), encode(t, WireVersion::kV1));

  const ResultMessage r = sample_result();
  const ResultMessage rv2 = decode_result(encode(r, WireVersion::kV2));
  EXPECT_EQ(encode(rv2, WireVersion::kV1), encode(r, WireVersion::kV1));
  const ResultMessage rv1 = decode_result(encode(r, WireVersion::kV1));
  EXPECT_EQ(encode(rv1, WireVersion::kV2), encode(r, WireVersion::kV2));
}

TEST(Protocol, DetectVersion) {
  EXPECT_EQ(detect_version(encode(sample_task(), WireVersion::kV1)), WireVersion::kV1);
  EXPECT_EQ(detect_version(encode(sample_task(), WireVersion::kV2)), WireVersion::kV2);
  EXPECT_THROW(detect_version(""), Error);
}

TEST(Protocol, V2IsSmallerOnPayloadBearingResults) {
  ResultMessage msg = sample_result();
  msg.payload.assign(4096, 0xAB);  // incompressible-looking raw bytes
  const size_t v1 = encode(msg, WireVersion::kV1).size();
  const size_t v2 = encode(msg, WireVersion::kV2).size();
  // v1 base64 inflates the payload by 4/3; v2 ships it raw.
  EXPECT_LT(v2, v1 * 3 / 4);
}

TEST(Protocol, WireIsLineOriented) {
  const std::string wire = encode(sample_task(), WireVersion::kV1);
  EXPECT_EQ(wire.substr(0, 5), "task ");
  EXPECT_EQ(wire.substr(wire.size() - 4), "end\n");
  // One stanza per line; no raw spaces inside the cmd payload.
  EXPECT_NE(wire.find("\ninfile hep-conda-env.tar.gz 240000000 1\n"),
            std::string::npos);
}

TEST(Protocol, RejectsUnterminated) {
  std::string wire = encode(sample_task(), WireVersion::kV1);
  wire = wire.substr(0, wire.size() - 4);  // chop "end\n"
  EXPECT_THROW(decode_task(wire), Error);
}

TEST(Protocol, RejectsTruncatedFrame) {
  const std::string wire = encode(sample_task(), WireVersion::kV2);
  for (const size_t keep : {size_t{1}, size_t{3}, wire.size() / 2, wire.size() - 1}) {
    EXPECT_THROW(decode_task(wire.substr(0, keep)), Error) << "keep=" << keep;
  }
  // Trailing garbage after the frame body is also an error.
  EXPECT_THROW(decode_task(wire + "x"), Error);
}

TEST(Protocol, RejectsWrongMessageKind) {
  for (const WireVersion v : {WireVersion::kV1, WireVersion::kV2}) {
    EXPECT_THROW(decode_result(encode(sample_task(), v)), Error);
    ResultMessage r;
    r.task_id = 1;
    r.wall_seconds = 1.0;
    EXPECT_THROW(decode_task(encode(r, v)), Error);
  }
}

TEST(Protocol, RejectsUnknownStanza) {
  EXPECT_THROW(decode_task("task 1 cat\nbogus stanza\nend\n"), Error);
}

TEST(Protocol, RejectsMissingAllocOrUsage) {
  EXPECT_THROW(decode_task("task 1 cat\ncmd x\nend\n"), Error);
  EXPECT_THROW(decode_result("result 1 0\nend\n"), Error);
}

TEST(Protocol, RejectsMalformedNumbers) {
  EXPECT_THROW(decode_task("task abc cat\nalloc 1 1 1\nend\n"), Error);
  EXPECT_THROW(decode_task("task 1 cat\nalloc x 1 1\nend\n"), Error);
  EXPECT_THROW(decode_result("result 1 0\nusage 1 nope 1 1\nend\n"), Error);
}

// Regression: v1 integer fields (peak bytes, infile sizes, exit codes) used
// to be parsed through the double path, which silently rounds above 2^53.
// 2^53 + 1 is the first integer a double cannot represent.
TEST(Protocol, V1IntegerFieldsExactAboveDoubleRange) {
  constexpr int64_t kBoundary = (int64_t{1} << 53) + 1;
  ResultMessage r;
  r.task_id = 1;
  r.memory_peak_bytes = kBoundary;
  r.disk_peak_bytes = kBoundary + 2;
  r.wall_seconds = 1.0;
  const ResultMessage back = decode_result(encode(r, WireVersion::kV1));
  EXPECT_EQ(back.memory_peak_bytes, kBoundary);
  EXPECT_EQ(back.disk_peak_bytes, kBoundary + 2);

  TaskMessage t = sample_task();
  t.infiles[0].size_bytes = kBoundary;
  const TaskMessage tback = decode_task(encode(t, WireVersion::kV1));
  EXPECT_EQ(tback.infiles[0].size_bytes, kBoundary);
}

TEST(Protocol, V1NegativeIntegerFields) {
  ResultMessage r;
  r.task_id = 3;
  r.exit_code = -9;  // killed by SIGKILL
  r.wall_seconds = 0.5;
  const ResultMessage back = decode_result(encode(r, WireVersion::kV1));
  EXPECT_EQ(back.exit_code, -9);
}

// Regression: the v1 integer parser multiplied without an overflow check,
// so a 25-digit field wrapped around and decoded as garbage.
TEST(Protocol, V1RejectsOverflowingIntegers) {
  const std::string huge(25, '9');
  EXPECT_THROW(decode_task("task " + huge + " cat\nalloc 1 1 1\nend\n"), Error);
  EXPECT_THROW(
      decode_result("result 1 0\nusage 1 " + huge + " 1 1\nend\n"), Error);
  // INT64_MAX itself still parses.
  const ResultMessage ok = decode_result(
      "result 1 0\nusage 1.0 9223372036854775807 0 1.0\nend\n");
  EXPECT_EQ(ok.memory_peak_bytes, INT64_MAX);
  // One past it does not.
  EXPECT_THROW(
      decode_result("result 1 0\nusage 1.0 9223372036854775808 0 1.0\nend\n"),
      Error);
}

TEST(Protocol, ValidTokenRules) {
  EXPECT_TRUE(valid_token("env.tar.gz"));
  EXPECT_TRUE(valid_token("a-b_c.1"));
  EXPECT_FALSE(valid_token(""));
  EXPECT_FALSE(valid_token("a b"));
  EXPECT_FALSE(valid_token("a\tb"));
}

TEST(Protocol, FieldCountValidation) {
  EXPECT_THROW(decode_task("task 1\nalloc 1 1 1\nend\n"), Error);
  EXPECT_THROW(decode_task("task 1 cat extra_field\nalloc 1 1 1\nend\n"), Error);
}

TEST(Protocol, BatchSizeArithmeticMatchesEncoder) {
  std::vector<TaskMessage> batch;
  size_t prefixed = 0;
  for (int i = 0; i < 3; ++i) {
    TaskMessage msg = sample_task();
    msg.task_id = 1000 + static_cast<uint64_t>(i);
    msg.outfiles.clear();  // task_body_size_v2 covers only unnamed outfiles
    const size_t body = task_body_size_v2(msg.task_id, msg.category,
                                          msg.command_line, msg.allocation,
                                          {{"hep-conda-env.tar.gz", 240000000, true},
                                           {"events-00001.root", 500000, false}},
                                          0);
    prefixed += batch_entry_size(body);
    batch.push_back(std::move(msg));
  }
  EXPECT_EQ(batch_frame_size(batch.size(), prefixed),
            encode_batch(batch, WireVersion::kV2).size());
}

TEST_P(ProtocolBothVersions, HelloRoundtrip) {
  HelloMessage msg;
  msg.worker_name = "node-17.cluster";
  msg.preferred = WireVersion::kV1;
  msg.capacity = alloc::Resources{16.0, 64e9, 500e9};
  const std::string wire = encode(msg, GetParam());
  EXPECT_EQ(detect_version(wire), GetParam());
  EXPECT_EQ(classify(wire), MessageKind::kHello);
  const HelloMessage back = decode_hello(wire);
  EXPECT_EQ(back.worker_name, "node-17.cluster");
  EXPECT_EQ(back.preferred, WireVersion::kV1);
  EXPECT_DOUBLE_EQ(back.capacity.cores, 16.0);
  EXPECT_DOUBLE_EQ(back.capacity.memory_bytes, 64e9);
}

TEST_P(ProtocolBothVersions, FileRoundtrip) {
  FileMessage msg;
  msg.name = "fn-7.py";
  msg.cacheable = true;
  msg.content = serde::Bytes{0x00, 0x0A, 0xF7, 'e', 'n', 'd', '\n', 0xFF};
  const std::string wire = encode(msg, GetParam());
  EXPECT_EQ(classify(wire), MessageKind::kFile);
  const FileMessage back = decode_file(wire);
  EXPECT_EQ(back.name, "fn-7.py");
  EXPECT_TRUE(back.cacheable);
  EXPECT_EQ(back.content, msg.content);

  FileMessage empty;
  empty.name = "empty.pkl";
  const FileMessage back2 = decode_file(encode(empty, GetParam()));
  EXPECT_TRUE(back2.content.empty());
  EXPECT_FALSE(back2.cacheable);
}

TEST_P(ProtocolBothVersions, ControlRoundtrip) {
  for (ControlType type :
       {ControlType::kPing, ControlType::kPong, ControlType::kBye}) {
    ControlMessage msg{type, 12345678901234ull, 1722.034512345};
    const std::string wire = encode(msg, GetParam());
    EXPECT_EQ(classify(wire), MessageKind::kControl);
    const ControlMessage back = decode_control(wire);
    EXPECT_EQ(back.type, type);
    EXPECT_EQ(back.nonce, 12345678901234ull);
    EXPECT_DOUBLE_EQ(back.timestamp, 1722.034512345);
  }
}

TEST_P(ProtocolBothVersions, StatsRoundtrip) {
  StatsMessage msg;
  msg.source = "foreman-3";
  msg.workers = 12;
  msg.pending = 345;
  msg.completed = 678901;
  msg.fanout_bytes = 9876543210;
  msg.fanout_files = 4321;
  msg.cache_chunks = 512;
  msg.cache_bytes = 1073741824;
  const std::string wire = encode(msg, GetParam());
  EXPECT_EQ(classify(wire), MessageKind::kStats);
  const StatsMessage back = decode_stats(wire);
  EXPECT_EQ(back.source, "foreman-3");
  EXPECT_EQ(back.workers, 12);
  EXPECT_EQ(back.pending, 345);
  EXPECT_EQ(back.completed, 678901);
  EXPECT_EQ(back.fanout_bytes, 9876543210);
  EXPECT_EQ(back.fanout_files, 4321);
  EXPECT_EQ(back.cache_chunks, 512);
  EXPECT_EQ(back.cache_bytes, 1073741824);

  // Default-valued telemetry still names its source; an empty source is
  // rejected (it would make the root's per-shard bookkeeping ambiguous).
  StatsMessage minimal;
  minimal.source = "f";
  const StatsMessage back2 = decode_stats(encode(minimal, GetParam()));
  EXPECT_EQ(back2.source, "f");
  EXPECT_EQ(back2.workers, 0);
  StatsMessage anonymous;
  EXPECT_THROW(decode_stats(encode(anonymous, GetParam())), Error);
}

TEST(Protocol, ClassifyDistinguishesEveryKind) {
  for (WireVersion v : {WireVersion::kV1, WireVersion::kV2}) {
    EXPECT_EQ(classify(encode(sample_task(), v)), MessageKind::kTask);
    EXPECT_EQ(classify(encode(sample_result(), v)), MessageKind::kResult);
    EXPECT_EQ(classify(encode(HelloMessage{"w", WireVersion::kV2, {}}, v)),
              MessageKind::kHello);
    EXPECT_EQ(classify(encode(FileMessage{"f", false, {}}, v)),
              MessageKind::kFile);
    EXPECT_EQ(classify(encode(ControlMessage{}, v)), MessageKind::kControl);
    EXPECT_EQ(classify(encode(StatsMessage{"f", 1, 0, 0, 0, 0, 0, 0}, v)),
              MessageKind::kStats);
  }
  EXPECT_EQ(classify(encode_batch(std::vector<TaskMessage>{sample_task(),
                                                           sample_task()})),
            MessageKind::kTaskBatch);
  EXPECT_EQ(classify(encode_batch(std::vector<ResultMessage>{sample_result(),
                                                             sample_result()})),
            MessageKind::kResultBatch);
  EXPECT_THROW(classify(""), Error);
  EXPECT_THROW(classify("bogus 1 2\nend\n"), Error);
}

// --- distributed tracing extensions ------------------------------------------

TEST(Protocol, TraceIdRoundTripsOnV2TaskAndResult) {
  TaskMessage t = sample_task();
  t.trace_id = 0xDEADBEEFCAFE1234ull;
  t.parent_span = 77;
  const TaskMessage tback = decode_task(encode(t, WireVersion::kV2));
  EXPECT_EQ(tback.trace_id, 0xDEADBEEFCAFE1234ull);
  EXPECT_EQ(tback.parent_span, 77u);

  ResultMessage r = sample_result();
  r.trace_id = 0xDEADBEEFCAFE1234ull;
  const ResultMessage rback = decode_result(encode(r, WireVersion::kV2));
  EXPECT_EQ(rback.trace_id, 0xDEADBEEFCAFE1234ull);
}

TEST(Protocol, UntracedFramesCarryNoExtensionBytes) {
  // trace_id == 0 must leave the encoding byte-identical to a codec that
  // never heard of tracing: the extension is trailing and conditional.
  TaskMessage t = sample_task();
  const std::string before = encode(t, WireVersion::kV2);
  t.trace_id = 0;
  t.parent_span = 0;
  EXPECT_EQ(encode(t, WireVersion::kV2), before);
  t.trace_id = 5;
  EXPECT_GT(encode(t, WireVersion::kV2).size(), before.size());
  // Decoding the untraced frame leaves the fields defaulted.
  const TaskMessage back = decode_task(before);
  EXPECT_EQ(back.trace_id, 0u);
  EXPECT_EQ(back.parent_span, 0u);
}

TEST(Protocol, V1DropsTraceIdsGracefully) {
  // v1 has no extension slot: the ids simply don't travel — old peers see
  // exactly the frames they always saw.
  TaskMessage t = sample_task();
  t.trace_id = 123;
  t.parent_span = 9;
  const TaskMessage back = decode_task(encode(t, WireVersion::kV1));
  EXPECT_EQ(back.trace_id, 0u);
  ResultMessage r = sample_result();
  r.trace_id = 123;
  EXPECT_EQ(decode_result(encode(r, WireVersion::kV1)).trace_id, 0u);
}

TEST(Protocol, TracedBatchEntriesStayBounded) {
  // The regression this guards: per-entry extension reads must not consume
  // the next entry's bytes in a batch frame. Mix traced and untraced.
  std::vector<TaskMessage> tasks{sample_task(), sample_task(), sample_task()};
  tasks[0].trace_id = 1111;
  tasks[2].trace_id = 3333;
  tasks[2].parent_span = 4;
  const std::vector<TaskMessage> back =
      decode_task_batch(encode_batch(tasks, WireVersion::kV2));
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0].trace_id, 1111u);
  EXPECT_EQ(back[1].trace_id, 0u);
  EXPECT_EQ(back[2].trace_id, 3333u);
  EXPECT_EQ(back[2].parent_span, 4u);

  std::vector<ResultMessage> results{sample_result(), sample_result()};
  results[1].trace_id = 2222;
  const std::vector<ResultMessage> rback =
      decode_result_batch(encode_batch(results, WireVersion::kV2));
  ASSERT_EQ(rback.size(), 2u);
  EXPECT_EQ(rback[0].trace_id, 0u);
  EXPECT_EQ(rback[1].trace_id, 2222u);
}

TEST(Protocol, EncodedSizeCoversTraceExtensions) {
  TaskMessage t = sample_task();
  t.trace_id = 0xFFFFFFFFFFFFFFFFull;  // max-width varint
  t.parent_span = 1;
  EXPECT_EQ(encoded_size(t, WireVersion::kV2),
            encode(t, WireVersion::kV2).size());
  ResultMessage r = sample_result();
  r.trace_id = 300;
  EXPECT_EQ(encoded_size(r, WireVersion::kV2),
            encode(r, WireVersion::kV2).size());
}

TEST_P(ProtocolBothVersions, ControlPeerTimeRoundtrip) {
  ControlMessage ping{ControlType::kPong, 42, 1234.5};
  ping.peer_time = 987.654321;
  const ControlMessage back = decode_control(encode(ping, GetParam()));
  EXPECT_DOUBLE_EQ(back.peer_time, 987.654321);
  // Absent field decodes as zero — and adds no bytes to the frame.
  ControlMessage plain{ControlType::kPong, 42, 1234.5};
  const std::string wire = encode(plain, GetParam());
  EXPECT_LT(wire.size(), encode(ping, GetParam()).size());
  EXPECT_DOUBLE_EQ(decode_control(wire).peer_time, 0.0);
}

TEST(Protocol, TelemetryRoundtrip) {
  TelemetryMessage msg;
  msg.source = "worker-3";
  msg.process_id = 4242;
  msg.clock_offset = -0.125;
  msg.dropped = 17;
  obs::TelemetryEvent ev;
  ev.ph = 'X';
  ev.pid = 2;
  ev.tid = 99;
  ev.trace_id = 0xABCDEF0123456789ull;
  ev.ts = 12.5;
  ev.dur = 0.25;
  ev.name = "lfm.run";
  ev.cat = "worker";
  ev.akey0 = "rss_mb";
  ev.aval0 = 88.0;
  ev.skey = "outcome";
  ev.sval = "success";
  msg.events.push_back(ev);
  obs::TelemetryEvent instant;
  instant.ph = 'i';
  instant.name = "net.dispatch";
  instant.cat = "net";
  msg.events.push_back(instant);
  msg.counters.push_back({"net.results", 12});
  msg.gauges.push_back({"net.write_queue_bytes", 4096.0});

  const std::string wire = encode(msg, WireVersion::kV2);
  EXPECT_EQ(classify(wire), MessageKind::kTelemetry);
  const TelemetryMessage back = decode_telemetry(wire);
  EXPECT_EQ(back.source, "worker-3");
  EXPECT_EQ(back.process_id, 4242u);
  EXPECT_DOUBLE_EQ(back.clock_offset, -0.125);
  EXPECT_EQ(back.dropped, 17);
  ASSERT_EQ(back.events.size(), 2u);
  EXPECT_EQ(back.events[0].ph, 'X');
  EXPECT_EQ(back.events[0].trace_id, 0xABCDEF0123456789ull);
  EXPECT_DOUBLE_EQ(back.events[0].ts, 12.5);
  EXPECT_DOUBLE_EQ(back.events[0].dur, 0.25);
  EXPECT_EQ(back.events[0].name, "lfm.run");
  EXPECT_EQ(back.events[0].akey0, "rss_mb");
  EXPECT_DOUBLE_EQ(back.events[0].aval0, 88.0);
  EXPECT_EQ(back.events[0].skey, "outcome");
  EXPECT_EQ(back.events[0].sval, "success");
  EXPECT_EQ(back.events[1].ph, 'i');
  EXPECT_EQ(back.events[1].name, "net.dispatch");
  ASSERT_EQ(back.counters.size(), 1u);
  EXPECT_EQ(back.counters[0].first, "net.results");
  EXPECT_EQ(back.counters[0].second, 12);
  ASSERT_EQ(back.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(back.gauges[0].second, 4096.0);
}

TEST(Protocol, TelemetryRequiresV2) {
  TelemetryMessage msg;
  msg.source = "w";
  EXPECT_THROW(encode(msg, WireVersion::kV1), Error);
  TelemetryMessage bad;  // empty source fails validation
  EXPECT_THROW(encode(bad, WireVersion::kV2), Error);
}

TEST(Protocol, OversizedFrameLengthRejectedBeforeAllocation) {
  // A hostile header claiming a body far past the cap: magic, version, type,
  // then a varint length of ~2^62 bytes. The decoder must reject it from the
  // header alone — it cannot wait for (or try to buffer) the claimed body.
  const std::string wire{'\xF7', 'Q', 2, 1,
                         '\xFF', '\xFF', '\xFF', '\xFF', '\xFF',
                         '\xFF', '\xFF', '\xFF', '\x3F'};
  EXPECT_THROW(decode_task(wire), Error);
  try {
    decode_task(wire);
    FAIL() << "oversized frame accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos);
  }
}

TEST(Protocol, FrameBodyLimitIsConfigurable) {
  EXPECT_EQ(max_frame_body_bytes(), kDefaultMaxFrameBodyBytes);
  set_max_frame_body_bytes(256);
  FileMessage big;
  big.name = "blob";
  big.content.assign(1024, 0xAB);
  const std::string wire = encode(big, WireVersion::kV2);
  EXPECT_THROW(decode_file(wire), Error);
  // Raising the limit back admits the same bytes.
  set_max_frame_body_bytes(0);  // 0 restores the default
  EXPECT_EQ(max_frame_body_bytes(), kDefaultMaxFrameBodyBytes);
  const FileMessage back = decode_file(wire);
  EXPECT_EQ(back.content.size(), 1024u);
}

// --- v2 byte goldens ----------------------------------------------------------

std::string to_hex(const std::string& wire) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : wire) {
    const auto b = static_cast<uint8_t>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

// Every v2 frame type pinned byte for byte: a layout change that the
// round-trip tests cannot see (field order, a varint turned fixed-width,
// an extension emitted when it should be absent) fails here.
TEST(Protocol, V2FramesAreByteIdenticalToGoldens) {
  TaskMessage traced = sample_task();
  traced.trace_id = 0xDEADBEEFCAFE1234ull;
  traced.parent_span = 77;
  EXPECT_EQ(to_hex(encode(sample_task())),
            "f751020196012a0c6865702d616e616c797369732d707974686f6e206c666d5f"
            "777261707065722e707920666e2e706b6c2027617267206f6e6527202d2d666c"
            "61670000000000000040000000c00b5ad6410000000065cddd4102146865702d"
            "636f6e64612d656e762e7461722e677a80f0f0e40101116576656e74732d3030"
            "3030312e726f6f74c0843d00010e686973742d30303030312e706b6c");
  EXPECT_EQ(to_hex(encode(traced)),
            "f7510201a1012a0c6865702d616e616c797369732d707974686f6e206c666d5f"
            "777261707065722e707920666e2e706b6c2027617267206f6e6527202d2d666c"
            "61670000000000000040000000c00b5ad6410000000065cddd4102146865702d"
            "636f6e64612d656e762e7461722e677a80f0f0e40101116576656e74732d3030"
            "3030312e726f6f74c0843d00010e686973742d30303030312e706b6cb4a4f8d7"
            "fcddefd6de014d");

  ResultMessage full = sample_result();
  full.exit_code = -9;
  full.exhausted = true;
  full.exhausted_resource = "memory";
  full.trace_id = 300;
  ResultMessage bare;
  bare.task_id = 1;
  EXPECT_EQ(to_hex(encode(full)),
            "f75102022c071103066d656d6f72799a9999999999fd3f8098f65380f09dc706"
            "0000000000a04f400600ff7a0a20f7ac02");
  EXPECT_EQ(to_hex(encode(bare)),
            "f751020215010000000000000000000000000000000000000000");

  EXPECT_EQ(to_hex(encode_batch(std::vector<TaskMessage>{sample_task(), traced})),
            "f7510203bc020296012a0c6865702d616e616c797369732d707974686f6e206c"
            "666d5f777261707065722e707920666e2e706b6c2027617267206f6e6527202d"
            "2d666c61670000000000000040000000c00b5ad6410000000065cddd41021468"
            "65702d636f6e64612d656e762e7461722e677a80f0f0e40101116576656e7473"
            "2d30303030312e726f6f74c0843d00010e686973742d30303030312e706b6ca1"
            "012a0c6865702d616e616c797369732d707974686f6e206c666d5f7772617070"
            "65722e707920666e2e706b6c2027617267206f6e6527202d2d666c6167000000"
            "0000000040000000c00b5ad6410000000065cddd4102146865702d636f6e6461"
            "2d656e762e7461722e677a80f0f0e40101116576656e74732d30303030312e72"
            "6f6f74c0843d00010e686973742d30303030312e706b6cb4a4f8d7fcddefd6de"
            "014d");
  EXPECT_EQ(to_hex(encode_batch(std::vector<ResultMessage>{full, bare})),
            "f751020444022c071103066d656d6f72799a9999999999fd3f8098f65380f09d"
            "c7060000000000a04f400600ff7a0a20f7ac0215010000000000000000000000"
            "000000000000000000");

  EXPECT_EQ(to_hex(encode(HelloMessage{"node-17", WireVersion::kV1,
                                       alloc::Resources{16.0, 64e9, 500e9}})),
            "f751020521076e6f64652d31370100000000000030400000000065cd2d420000"
            "00a2941a5d42");
  EXPECT_EQ(to_hex(encode(FileMessage{"fn-7.py", true, serde::Bytes{0x00, 0xF7, 0x0A}})),
            "f75102060d07666e2d372e7079010300f70a");
  ControlMessage pong{ControlType::kPong, 300, 1234.5};
  EXPECT_EQ(to_hex(encode(pong)),
            "f75102070b02ac0200000000004a9340");
  pong.peer_time = 987.25;
  EXPECT_EQ(to_hex(encode(pong)),
            "f75102071302ac0200000000004a93400000000000da8e40");
  EXPECT_EQ(to_hex(encode(StatsMessage{"foreman-3", 12, -1, 678901, 9876543210, 4321,
                                       512, 1073741824})),
            "f75102081d09666f72656d616e2d331801eaef52d4db80cb49c2438008808080"
            "8008");

  TelemetryMessage telemetry;
  telemetry.source = "worker-3";
  telemetry.process_id = 4242;
  telemetry.clock_offset = -0.125;
  telemetry.dropped = 17;
  obs::TelemetryEvent ev;
  ev.ph = 'X';
  ev.pid = 2;
  ev.tid = 99;
  ev.trace_id = 0xABCDEF01ull;
  ev.ts = 12.5;
  ev.dur = 0.25;
  ev.name = "lfm.run";
  ev.cat = "worker";
  ev.akey0 = "rss_mb";
  ev.aval0 = 88.0;
  ev.skey = "outcome";
  ev.sval = "ok";
  telemetry.events.push_back(ev);
  telemetry.counters.push_back({"net.results", -12});
  telemetry.gauges.push_back({"net.queue", 4096.0});
  EXPECT_EQ(to_hex(encode(telemetry)),
            "f7510209800108776f726b65722d339221000000000000c0bf220158026381de"
            "b7de0a0000000000002940000000000000d03f076c666d2e72756e06776f726b"
            "6572067273735f6d620000000000005640000000000000000000076f7574636f"
            "6d65026f6b010b6e65742e726573756c74731701096e65742e71756575650000"
            "00000000b040");
}

}  // namespace
}  // namespace lfm::wq
