// Property-based round-trip and adversarial-input tests for the two data
// plane codecs: the serde pickle (owned and zero-copy view decode) and the
// wq wire protocol (v1 text and v2 binary frames). Mutated inputs must
// either decode or throw lfm::Error — never crash, hang, or read out of
// bounds.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "serde/pickle.h"
#include "serde/value.h"
#include "wq/protocol.h"

namespace lfm {
namespace {

using serde::Value;

// Deterministic generator: the suite must fail reproducibly.
using Rng = std::mt19937_64;

std::string random_token(Rng& rng, size_t max_len) {
  static const char kAlpha[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-";
  std::uniform_int_distribution<size_t> len(1, max_len);
  std::uniform_int_distribution<size_t> pick(0, sizeof(kAlpha) - 2);
  std::string s(len(rng), '\0');
  for (auto& c : s) c = kAlpha[pick(rng)];
  return s;
}

std::string random_text(Rng& rng, size_t max_len) {
  // Full printable range plus whitespace — exercises the v1 escaper.
  std::uniform_int_distribution<size_t> len(0, max_len);
  std::uniform_int_distribution<int> pick(0, 96);
  std::string s(len(rng), '\0');
  for (auto& c : s) {
    const int v = pick(rng);
    c = v < 95 ? static_cast<char>(' ' + v) : (v == 95 ? '\t' : '\n');
  }
  return s;
}

serde::Bytes random_bytes(Rng& rng, size_t max_len) {
  std::uniform_int_distribution<size_t> len(0, max_len);
  std::uniform_int_distribution<int> byte(0, 255);
  serde::Bytes b(len(rng));
  for (auto& x : b) x = static_cast<uint8_t>(byte(rng));
  return b;
}

Value random_value(Rng& rng, int depth) {
  std::uniform_int_distribution<int> kind(0, depth > 0 ? 7 : 5);
  switch (kind(rng)) {
    case 0: return Value();
    case 1: return Value(rng() % 2 == 0);
    case 2: {
      std::uniform_int_distribution<int64_t> d(INT64_MIN, INT64_MAX);
      return Value(d(rng));
    }
    case 3: {
      std::uniform_real_distribution<double> d(-1e18, 1e18);
      return Value(d(rng));
    }
    case 4: return Value(random_text(rng, 48));
    case 5: return Value(random_bytes(rng, 48));
    case 6: {
      serde::ValueList l;
      std::uniform_int_distribution<size_t> n(0, 5);
      const size_t count = n(rng);
      for (size_t i = 0; i < count; ++i) l.push_back(random_value(rng, depth - 1));
      return Value(std::move(l));
    }
    default: {
      serde::ValueDict d;
      std::uniform_int_distribution<size_t> n(0, 5);
      const size_t count = n(rng);
      for (size_t i = 0; i < count; ++i) {
        d[random_token(rng, 12)] = random_value(rng, depth - 1);
      }
      return Value(std::move(d));
    }
  }
}

TEST(WireFuzz, PickleRoundtripsRandomTrees) {
  Rng rng(0xC0FFEE);
  serde::Bytes buffer;
  for (int i = 0; i < 300; ++i) {
    const Value original = random_value(rng, 4);
    // Owned decode of the one-shot encoder.
    const serde::Bytes wire = serde::dumps(original);
    EXPECT_TRUE(serde::loads(wire) == original) << "iteration " << i;
    // Buffer-reusing encoder produces identical bytes.
    serde::dumps_into(original, buffer);
    EXPECT_EQ(buffer, wire) << "iteration " << i;
    // Zero-copy view decode compares equal while the buffer lives...
    const Value borrowed = serde::loads_view(wire);
    EXPECT_TRUE(borrowed == original) << "iteration " << i;
    // ...and to_owned survives the buffer.
    const Value owned = borrowed.to_owned();
    EXPECT_TRUE(owned == original) << "iteration " << i;
  }
}

TEST(WireFuzz, PickleRejectsTruncation) {
  Rng rng(0xBADF00D);
  for (int i = 0; i < 100; ++i) {
    const serde::Bytes wire = serde::dumps(random_value(rng, 3));
    for (size_t keep = 0; keep < wire.size(); ++keep) {
      const serde::Bytes cut(wire.begin(), wire.begin() + static_cast<long>(keep));
      EXPECT_THROW(serde::loads(cut), Error) << "i=" << i << " keep=" << keep;
      EXPECT_THROW(serde::loads_view(cut), Error) << "i=" << i << " keep=" << keep;
    }
  }
}

TEST(WireFuzz, PickleSurvivesBitFlips) {
  Rng rng(0xDEAD10CC);
  for (int i = 0; i < 200; ++i) {
    serde::Bytes wire = serde::dumps(random_value(rng, 3));
    if (wire.empty()) continue;
    std::uniform_int_distribution<size_t> pos(0, wire.size() - 1);
    std::uniform_int_distribution<int> bit(0, 7);
    wire[pos(rng)] ^= static_cast<uint8_t>(1 << bit(rng));
    // A flipped bit may still decode to some (different) value; it must
    // never crash or read past the buffer.
    try {
      (void)serde::loads(wire);
      (void)serde::loads_view(wire).to_owned();
    } catch (const Error&) {
      // rejected — fine
    }
  }
}

wq::TaskMessage random_task(Rng& rng) {
  wq::TaskMessage msg;
  msg.task_id = rng() % 1000000 + 1;
  msg.category = random_token(rng, 16);
  // v1 cannot carry an empty cmd line (the stanza would lose its field), so
  // keep the command non-empty; emptiness is not interesting to fuzz here.
  msg.command_line = "run " + random_text(rng, 76);
  std::uniform_real_distribution<double> cores(0.25, 64.0);
  // v1 prints cores with three decimals; generate at that granularity so
  // the round trip is exact in both versions.
  const double quantized_cores = std::round(cores(rng) * 1000.0) / 1000.0;
  msg.allocation = alloc::Resources{quantized_cores, double(rng() % (int64_t{1} << 40)),
                                    double(rng() % (int64_t{1} << 40))};
  std::uniform_int_distribution<size_t> nfiles(0, 4);
  const size_t n = nfiles(rng);
  for (size_t i = 0; i < n; ++i) {
    msg.infiles.push_back({random_token(rng, 24),
                           static_cast<int64_t>(rng() % (int64_t{1} << 55)),
                           rng() % 2 == 0});
  }
  const size_t m = nfiles(rng);
  for (size_t i = 0; i < m; ++i) msg.outfiles.push_back(random_token(rng, 24));
  return msg;
}

wq::ResultMessage random_result(Rng& rng) {
  wq::ResultMessage msg;
  msg.task_id = rng() % 1000000 + 1;
  std::uniform_int_distribution<int> exit(-128, 127);
  msg.exit_code = exit(rng);
  msg.exhausted = rng() % 4 == 0;
  if (msg.exhausted) msg.exhausted_resource = rng() % 2 == 0 ? "memory" : "disk";
  std::uniform_real_distribution<double> cores(0.0, 64.0);
  msg.cores_used = cores(rng);
  msg.memory_peak_bytes = static_cast<int64_t>(rng() % (uint64_t{1} << 62));
  msg.disk_peak_bytes = static_cast<int64_t>(rng() % (uint64_t{1} << 62));
  std::uniform_real_distribution<double> wall(0.0, 1e6);
  msg.wall_seconds = wall(rng);
  msg.payload = random_bytes(rng, 256);
  return msg;
}

bool same_task(const wq::TaskMessage& a, const wq::TaskMessage& b) {
  if (a.task_id != b.task_id || a.category != b.category ||
      a.command_line != b.command_line || a.infiles.size() != b.infiles.size() ||
      a.outfiles != b.outfiles) {
    return false;
  }
  for (size_t i = 0; i < a.infiles.size(); ++i) {
    if (a.infiles[i].name != b.infiles[i].name ||
        a.infiles[i].size_bytes != b.infiles[i].size_bytes ||
        a.infiles[i].cacheable != b.infiles[i].cacheable) {
      return false;
    }
  }
  return a.allocation.cores == b.allocation.cores;
}

bool same_result(const wq::ResultMessage& a, const wq::ResultMessage& b) {
  return a.task_id == b.task_id && a.exit_code == b.exit_code &&
         a.exhausted == b.exhausted &&
         a.exhausted_resource == b.exhausted_resource &&
         a.memory_peak_bytes == b.memory_peak_bytes &&
         a.disk_peak_bytes == b.disk_peak_bytes && a.payload == b.payload;
}

TEST(WireFuzz, ProtocolRoundtripsBothVersions) {
  Rng rng(0x5EED);
  for (int i = 0; i < 200; ++i) {
    const wq::TaskMessage t = random_task(rng);
    const wq::ResultMessage r = random_result(rng);
    for (const auto v : {wq::WireVersion::kV1, wq::WireVersion::kV2}) {
      EXPECT_TRUE(same_task(wq::decode_task(wq::encode(t, v)), t))
          << "i=" << i << " v=" << int(v);
      EXPECT_TRUE(same_result(wq::decode_result(wq::encode(r, v)), r))
          << "i=" << i << " v=" << int(v);
    }
  }
}

TEST(WireFuzz, ProtocolBatchRoundtrips) {
  Rng rng(0xB47C4);
  for (int i = 0; i < 40; ++i) {
    std::vector<wq::ResultMessage> batch;
    std::uniform_int_distribution<size_t> n(1, 12);
    const size_t count = n(rng);
    for (size_t k = 0; k < count; ++k) batch.push_back(random_result(rng));
    for (const auto v : {wq::WireVersion::kV1, wq::WireVersion::kV2}) {
      const auto back = wq::decode_result_batch(wq::encode_batch(batch, v));
      ASSERT_EQ(back.size(), batch.size()) << "i=" << i << " v=" << int(v);
      for (size_t k = 0; k < count; ++k) {
        EXPECT_TRUE(same_result(back[k], batch[k])) << "i=" << i << " k=" << k;
      }
    }
  }
}

TEST(WireFuzz, ProtocolRejectsTruncation) {
  Rng rng(0x7A5C);
  for (int i = 0; i < 30; ++i) {
    for (const auto v : {wq::WireVersion::kV1, wq::WireVersion::kV2}) {
      const std::string wire = wq::encode(random_task(rng), v);
      // Every strict prefix must be rejected, not misparsed: both versions
      // are self-delimiting (v1 by the end line, v2 by the length prefix).
      for (size_t keep = 1; keep < wire.size(); keep += 1 + keep / 8) {
        EXPECT_THROW(wq::decode_task(wire.substr(0, keep)), Error)
            << "i=" << i << " v=" << int(v) << " keep=" << keep;
      }
    }
  }
}

TEST(WireFuzz, ProtocolSurvivesBitFlips) {
  Rng rng(0xF1135);
  for (int i = 0; i < 150; ++i) {
    for (const auto v : {wq::WireVersion::kV1, wq::WireVersion::kV2}) {
      std::string wire = wq::encode(random_result(rng), v);
      std::uniform_int_distribution<size_t> pos(0, wire.size() - 1);
      std::uniform_int_distribution<int> bit(0, 7);
      const size_t at = pos(rng);
      wire[at] =
          static_cast<char>(static_cast<uint8_t>(wire[at]) ^ (1 << bit(rng)));
      try {
        (void)wq::decode_result(wire);
      } catch (const Error&) {
        // rejected — fine
      }
    }
  }
}

TEST(WireFuzz, ProtocolRejectsRandomGarbage) {
  Rng rng(0x6A6B6C);
  for (int i = 0; i < 200; ++i) {
    const serde::Bytes junk = random_bytes(rng, 128);
    const std::string wire(junk.begin(), junk.end());
    try {
      (void)wq::decode_task(wire);
    } catch (const Error&) {
    }
    try {
      (void)wq::decode_result_batch(wire);
    } catch (const Error&) {
    }
  }
}

wq::HelloMessage random_hello(Rng& rng) {
  wq::HelloMessage msg;
  msg.worker_name = random_token(rng, 24);
  msg.preferred = rng() % 2 == 0 ? wq::WireVersion::kV1 : wq::WireVersion::kV2;
  msg.capacity = alloc::Resources{double(rng() % 64 + 1), double(rng() % (int64_t{1} << 40)),
                                  double(rng() % (int64_t{1} << 40))};
  return msg;
}

wq::FileMessage random_file(Rng& rng) {
  return {random_token(rng, 24), rng() % 2 == 0, random_bytes(rng, 200)};
}

wq::ControlMessage random_control(Rng& rng) {
  // Clock values stay below 1e4 s so v1's "%.9f" text reparses exactly.
  std::uniform_real_distribution<double> clock(0.0, 1e4);
  wq::ControlMessage msg{static_cast<wq::ControlType>(rng() % 3 + 1), rng(), clock(rng)};
  if (rng() % 2 == 0) msg.peer_time = clock(rng);
  return msg;
}

wq::StatsMessage random_stats(Rng& rng) {
  const auto any = [&] { return static_cast<int64_t>(rng()); };
  return {random_token(rng, 16), any(), any(), any(), any(), any(), any(), any()};
}

wq::TelemetryMessage random_telemetry(Rng& rng) {
  wq::TelemetryMessage msg;
  msg.source = random_token(rng, 16);
  msg.process_id = rng() % 100000;
  msg.clock_offset = std::uniform_real_distribution<double>(-1.0, 1.0)(rng);
  msg.dropped = static_cast<int64_t>(rng() % 1000);
  for (size_t i = rng() % 4; i > 0; --i) {
    obs::TelemetryEvent ev;
    ev.ph = rng() % 2 == 0 ? 'X' : 'i';
    ev.pid = static_cast<uint32_t>(rng());
    ev.tid = rng();
    ev.trace_id = rng();
    ev.ts = std::uniform_real_distribution<double>(0.0, 1e6)(rng);
    ev.dur = std::uniform_real_distribution<double>(0.0, 10.0)(rng);
    ev.name = random_text(rng, 24);
    ev.cat = random_token(rng, 8);
    ev.akey0 = random_token(rng, 8);
    ev.aval0 = static_cast<double>(rng() % 1000);
    ev.skey = random_token(rng, 8);
    ev.sval = random_text(rng, 16);
    msg.events.push_back(std::move(ev));
  }
  for (size_t i = rng() % 4; i > 0; --i) {
    msg.counters.emplace_back(random_token(rng, 16), static_cast<int64_t>(rng()));
  }
  for (size_t i = rng() % 4; i > 0; --i) {
    msg.gauges.emplace_back(random_token(rng, 16), static_cast<double>(rng() % 100000));
  }
  return msg;
}

std::vector<wq::TaskMessage> random_task_batch(Rng& rng) {
  std::vector<wq::TaskMessage> batch(rng() % 6 + 1);
  for (auto& msg : batch) {
    msg = random_task(rng);
    if (rng() % 2 == 0) {
      msg.trace_id = rng() | 1;
      msg.parent_span = rng() % 1000;
    }
  }
  return batch;
}

// One v2 decoder reachable from a socket, with a source of valid frames
// for it: the truncation and bit-flip cases below run over all of them.
struct V2Decoder {
  const char* name;
  std::string (*random_frame)(Rng&);
  void (*decode)(const std::string&);
};

const V2Decoder kV2Decoders[] = {
    {"task", [](Rng& rng) { return wq::encode(random_task(rng)); },
     [](const std::string& w) { (void)wq::decode_task(w); }},
    {"result", [](Rng& rng) { return wq::encode(random_result(rng)); },
     [](const std::string& w) { (void)wq::decode_result(w); }},
    {"task_batch", [](Rng& rng) { return wq::encode_batch(random_task_batch(rng)); },
     [](const std::string& w) { (void)wq::decode_task_batch(w); }},
    {"hello", [](Rng& rng) { return wq::encode(random_hello(rng)); },
     [](const std::string& w) { (void)wq::decode_hello(w); }},
    {"file", [](Rng& rng) { return wq::encode(random_file(rng)); },
     [](const std::string& w) { (void)wq::decode_file(w); }},
    {"control", [](Rng& rng) { return wq::encode(random_control(rng)); },
     [](const std::string& w) { (void)wq::decode_control(w); }},
    {"stats", [](Rng& rng) { return wq::encode(random_stats(rng)); },
     [](const std::string& w) { (void)wq::decode_stats(w); }},
    {"telemetry", [](Rng& rng) { return wq::encode(random_telemetry(rng)); },
     [](const std::string& w) { (void)wq::decode_telemetry(w); }},
};

TEST(WireFuzz, EveryV2DecoderRejectsTruncation) {
  Rng rng(0x7A5C2);
  for (const V2Decoder& d : kV2Decoders) {
    for (int i = 0; i < 20; ++i) {
      const std::string wire = d.random_frame(rng);
      ASSERT_NO_THROW(d.decode(wire)) << d.name << " i=" << i;
      // The length prefix makes every strict prefix detectably short.
      for (size_t keep = 0; keep < wire.size(); keep += 1 + keep / 16) {
        EXPECT_THROW(d.decode(wire.substr(0, keep)), Error)
            << d.name << " i=" << i << " keep=" << keep;
      }
    }
  }
}

TEST(WireFuzz, EveryV2DecoderSurvivesBitFlips) {
  Rng rng(0xF1136);
  for (const V2Decoder& d : kV2Decoders) {
    for (int i = 0; i < 150; ++i) {
      std::string wire = d.random_frame(rng);
      // Flip one to three bits: decode or throw, never crash or overread.
      for (size_t flips = rng() % 3 + 1; flips > 0; --flips) {
        const size_t at = rng() % wire.size();
        wire[at] = static_cast<char>(static_cast<uint8_t>(wire[at]) ^ (1 << rng() % 8));
      }
      try {
        d.decode(wire);
      } catch (const Error&) {
        // rejected — fine
      }
    }
  }
}

// decode(encode(m)) re-encodes to the same bytes: every field the encoder
// writes, the decoder reads back, in either version a message has.
template <typename Msg, typename Decode>
void expect_reencodes(const Msg& msg, Decode decode, wq::WireVersion v, int i) {
  const std::string wire = wq::encode(msg, v);
  EXPECT_EQ(wq::encode(decode(wire), v), wire) << "i=" << i << " v=" << int(v);
}

TEST(WireFuzz, EveryMessageRoundtrips) {
  Rng rng(0x5EED2);
  for (int i = 0; i < 100; ++i) {
    for (const auto v : {wq::WireVersion::kV1, wq::WireVersion::kV2}) {
      expect_reencodes(random_hello(rng), wq::decode_hello, v, i);
      expect_reencodes(random_file(rng), wq::decode_file, v, i);
      expect_reencodes(random_control(rng), wq::decode_control, v, i);
      expect_reencodes(random_stats(rng), wq::decode_stats, v, i);
      const auto batch = random_task_batch(rng);
      const std::string wire = wq::encode_batch(batch, v);
      EXPECT_EQ(wq::encode_batch(wq::decode_task_batch(wire), v), wire) << "i=" << i;
    }
    expect_reencodes(random_telemetry(rng), wq::decode_telemetry, wq::WireVersion::kV2, i);
  }
}

}  // namespace
}  // namespace lfm
