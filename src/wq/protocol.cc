#include "wq/protocol.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <concepts>
#include <cstring>
#include <limits>
#include <type_traits>

#include "obs/recorder.h"
#include "serde/json.h"
#include "serde/pickle.h"
#include "util/strings.h"

namespace lfm::wq {
namespace {

// --- v2 frame constants -----------------------------------------------------
// Frames open with a byte that cannot begin a v1 text message (v1 starts
// with ASCII 't'/'r'), so decoders can sniff the version from byte 0.
constexpr uint8_t kFrameMagic0 = 0xF7;
constexpr uint8_t kFrameMagic1 = 'Q';
constexpr uint8_t kFrameVersion = 2;

enum FrameType : uint8_t {
  kFrameTask = 1,
  kFrameResult = 2,
  kFrameTaskBatch = 3,
  kFrameResultBatch = 4,
  kFrameHello = 5,
  kFrameFile = 6,
  kFrameControl = 7,
  kFrameStats = 8,
  kFrameTelemetry = 9,
};

// Fixed header bytes before the body-length varint: magic(2) ver(1) type(1).
constexpr size_t kFrameFixedHeader = 4;

// Decode-side frame body cap (see protocol.h). Relaxed atomics: the limit is
// configuration, not synchronization.
std::atomic<size_t> g_max_frame_body_bytes{kDefaultMaxFrameBodyBytes};

// --- wire metrics (recorded only while the obs recorder is enabled) ---------
struct WireMetrics {
  obs::Counter& frames_encoded;
  obs::Counter& bytes_encoded;
  obs::Counter& frames_decoded;
  obs::Counter& bytes_decoded;
  obs::HistogramMetric& batch_size;

  static WireMetrics& get() {
    static WireMetrics m{
        obs::Recorder::global().metrics().counter("wire.frames_encoded"),
        obs::Recorder::global().metrics().counter("wire.bytes_encoded"),
        obs::Recorder::global().metrics().counter("wire.frames_decoded"),
        obs::Recorder::global().metrics().counter("wire.bytes_decoded"),
        obs::Recorder::global().metrics().histogram("wire.encoded_batch_size", 1.0,
                                                    1e5, 48),
    };
    return m;
  }
};

void count_encoded(size_t bytes, size_t messages) {
  if (!obs::Recorder::enabled()) return;
  WireMetrics& m = WireMetrics::get();
  m.frames_encoded.add();
  m.bytes_encoded.add(static_cast<int64_t>(bytes));
  m.batch_size.observe(static_cast<double>(messages));
}

void count_decoded(size_t bytes) {
  if (!obs::Recorder::enabled()) return;
  WireMetrics& m = WireMetrics::get();
  m.frames_decoded.add();
  m.bytes_decoded.add(static_cast<int64_t>(bytes));
}

// --- v1 text helpers --------------------------------------------------------

// Command lines are the only field that may contain spaces; they are
// percent-escaped so every message line splits safely on whitespace.
std::string escape_command(const std::string& cmd) {
  std::string out;
  for (const char c : cmd) {
    if (c == '%' || c == ' ' || c == '\n' || c == '\t') {
      out += strformat("%%%02x", static_cast<unsigned char>(c));
    } else {
      out += c;
    }
  }
  return out;
}

std::string unescape_command(const std::string& wire) {
  std::string out;
  for (size_t i = 0; i < wire.size(); ++i) {
    if (wire[i] != '%') {
      out += wire[i];
      continue;
    }
    if (i + 2 >= wire.size()) throw Error("protocol: truncated escape");
    const auto hex = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      throw Error("protocol: bad escape digit");
    };
    out += static_cast<char>(hex(wire[i + 1]) * 16 + hex(wire[i + 2]));
    i += 2;
  }
  return out;
}

std::vector<std::vector<std::string>> parse_lines(const std::string& wire,
                                                  const char* expected_head) {
  std::vector<std::vector<std::string>> lines;
  bool terminated = false;
  for (const auto& raw : split(wire, '\n')) {
    if (raw.empty()) continue;
    auto fields = split_nonempty(raw, ' ');
    if (fields.empty()) continue;
    if (fields[0] == "end") {
      terminated = true;
      break;
    }
    lines.push_back(std::move(fields));
  }
  if (!terminated) throw Error("protocol: message not terminated by 'end'");
  if (lines.empty() || lines[0][0] != expected_head) {
    throw Error(std::string("protocol: expected '") + expected_head + "' message");
  }
  return lines;
}

uint64_t parse_u64(const std::string& s) {
  if (s.empty()) throw Error("protocol: empty number");
  uint64_t v = 0;
  for (const char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      throw Error("protocol: bad number '" + s + "'");
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    // Overflow guard: a field wider than 2^64 must throw, not wrap.
    if (v > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
      throw Error("protocol: number out of range '" + s + "'");
    }
    v = v * 10 + digit;
  }
  return v;
}

// Signed variant of parse_u64. Integer wire fields (byte counts, exit
// codes) parse through this, not through a double: above 2^53 a double
// silently drops low bits, and an int has no business round-tripping
// through floating point at all.
int64_t parse_i64(const std::string& s) {
  const bool negative = !s.empty() && s[0] == '-';
  const uint64_t magnitude = parse_u64(negative ? s.substr(1) : s);
  const uint64_t limit =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) + (negative ? 1 : 0);
  if (magnitude > limit) throw Error("protocol: number out of range '" + s + "'");
  return negative ? -static_cast<int64_t>(magnitude) : static_cast<int64_t>(magnitude);
}

double parse_real(const std::string& s) {
  try {
    size_t used = 0;
    const double v = std::stod(s, &used);
    if (used != s.size()) throw Error("protocol: bad real '" + s + "'");
    return v;
  } catch (const std::exception&) {
    throw Error("protocol: bad real '" + s + "'");
  }
}

void need_fields(const std::vector<std::string>& fields, size_t count) {
  if (fields.size() != count) {
    throw Error("protocol: wrong field count in '" + join(fields, " ") + "'");
  }
}

// --- v1 encode/decode (the original line-oriented protocol) -----------------

void encode_v1(const TaskMessage& msg, std::string& out) {
  if (!valid_token(msg.category)) throw Error("protocol: invalid category token");
  out += strformat("task %llu %s\n", static_cast<unsigned long long>(msg.task_id),
                   msg.category.c_str());
  out += "cmd " + escape_command(msg.command_line) + "\n";
  out += strformat("alloc %.3f %lld %lld\n", msg.allocation.cores,
                   static_cast<long long>(msg.allocation.memory_bytes),
                   static_cast<long long>(msg.allocation.disk_bytes));
  for (const auto& f : msg.infiles) {
    if (!valid_token(f.name)) throw Error("protocol: invalid file name " + f.name);
    out += strformat("infile %s %lld %d\n", f.name.c_str(),
                     static_cast<long long>(f.size_bytes), f.cacheable ? 1 : 0);
  }
  for (const auto& name : msg.outfiles) {
    if (!valid_token(name)) throw Error("protocol: invalid file name " + name);
    out += "outfile " + name + "\n";
  }
  out += "end\n";
}

void encode_v1(const ResultMessage& msg, std::string& out) {
  out += strformat("result %llu %d\n", static_cast<unsigned long long>(msg.task_id),
                   msg.exit_code);
  if (msg.exhausted) {
    if (!valid_token(msg.exhausted_resource)) {
      throw Error("protocol: invalid resource token");
    }
    out += "exhausted " + msg.exhausted_resource + "\n";
  }
  out += strformat("usage %.3f %lld %lld %.3f\n", msg.cores_used,
                   static_cast<long long>(msg.memory_peak_bytes),
                   static_cast<long long>(msg.disk_peak_bytes), msg.wall_seconds);
  if (!msg.payload.empty()) {
    out += "payload " + serde::base64_encode(msg.payload) + "\n";
  }
  out += "end\n";
}

TaskMessage decode_task_v1(const std::string& wire) {
  const auto lines = parse_lines(wire, "task");
  TaskMessage msg;
  bool saw_alloc = false;
  for (const auto& fields : lines) {
    if (fields[0] == "task") {
      need_fields(fields, 3);
      msg.task_id = parse_u64(fields[1]);
      msg.category = fields[2];
    } else if (fields[0] == "cmd") {
      need_fields(fields, 2);
      msg.command_line = unescape_command(fields[1]);
    } else if (fields[0] == "alloc") {
      need_fields(fields, 4);
      msg.allocation.cores = parse_real(fields[1]);
      // The wire carries whole bytes; parse as integers (exact to 2^63)
      // before widening into the double-typed resource vector.
      msg.allocation.memory_bytes = static_cast<double>(parse_i64(fields[2]));
      msg.allocation.disk_bytes = static_cast<double>(parse_i64(fields[3]));
      saw_alloc = true;
    } else if (fields[0] == "infile") {
      need_fields(fields, 4);
      TaskMessage::FileStanza f;
      f.name = fields[1];
      f.size_bytes = parse_i64(fields[2]);
      f.cacheable = fields[3] == "1";
      msg.infiles.push_back(std::move(f));
    } else if (fields[0] == "outfile") {
      need_fields(fields, 2);
      msg.outfiles.push_back(fields[1]);
    } else {
      throw Error("protocol: unknown stanza '" + fields[0] + "'");
    }
  }
  if (msg.task_id == 0) throw Error("protocol: missing task id");
  if (!saw_alloc) throw Error("protocol: missing alloc stanza");
  return msg;
}

ResultMessage decode_result_v1(const std::string& wire) {
  const auto lines = parse_lines(wire, "result");
  ResultMessage msg;
  bool saw_usage = false;
  for (const auto& fields : lines) {
    if (fields[0] == "result") {
      need_fields(fields, 3);
      msg.task_id = parse_u64(fields[1]);
      const int64_t code = parse_i64(fields[2]);
      if (code < std::numeric_limits<int>::min() ||
          code > std::numeric_limits<int>::max()) {
        throw Error("protocol: number out of range '" + fields[2] + "'");
      }
      msg.exit_code = static_cast<int>(code);
    } else if (fields[0] == "exhausted") {
      need_fields(fields, 2);
      msg.exhausted = true;
      msg.exhausted_resource = fields[1];
    } else if (fields[0] == "usage") {
      need_fields(fields, 5);
      msg.cores_used = parse_real(fields[1]);
      // Byte peaks are integers on the wire; a double round-trip would lose
      // precision above 2^53 (the labeler would learn a wrong peak).
      msg.memory_peak_bytes = parse_i64(fields[2]);
      msg.disk_peak_bytes = parse_i64(fields[3]);
      msg.wall_seconds = parse_real(fields[4]);
      saw_usage = true;
    } else if (fields[0] == "payload") {
      need_fields(fields, 2);
      msg.payload = serde::base64_decode(fields[1]);
    } else {
      throw Error("protocol: unknown stanza '" + fields[0] + "'");
    }
  }
  if (msg.task_id == 0) throw Error("protocol: missing task id");
  if (!saw_usage) throw Error("protocol: missing usage stanza");
  return msg;
}

// --- v1 transport-control messages (hello / put / control) ------------------

const char* control_type_token(ControlType type) {
  switch (type) {
    case ControlType::kPing: return "ping";
    case ControlType::kPong: return "pong";
    case ControlType::kBye: return "bye";
  }
  throw Error("protocol: bad control type");
}

ControlType parse_control_type(const std::string& token) {
  if (token == "ping") return ControlType::kPing;
  if (token == "pong") return ControlType::kPong;
  if (token == "bye") return ControlType::kBye;
  throw Error("protocol: unknown control type '" + token + "'");
}

void encode_v1(const HelloMessage& msg, std::string& out) {
  if (!valid_token(msg.worker_name)) throw Error("protocol: invalid worker name");
  out += strformat("hello %s %d\n", msg.worker_name.c_str(),
                   static_cast<int>(msg.preferred));
  out += strformat("cap %.3f %lld %lld\n", msg.capacity.cores,
                   static_cast<long long>(msg.capacity.memory_bytes),
                   static_cast<long long>(msg.capacity.disk_bytes));
  out += "end\n";
}

HelloMessage decode_hello_v1(const std::string& wire) {
  const auto lines = parse_lines(wire, "hello");
  HelloMessage msg;
  bool saw_cap = false;
  for (const auto& fields : lines) {
    if (fields[0] == "hello") {
      need_fields(fields, 3);
      msg.worker_name = fields[1];
      const int64_t v = parse_i64(fields[2]);
      if (v != 1 && v != 2) throw Error("protocol: bad hello version '" + fields[2] + "'");
      msg.preferred = static_cast<WireVersion>(v);
    } else if (fields[0] == "cap") {
      need_fields(fields, 4);
      msg.capacity.cores = parse_real(fields[1]);
      msg.capacity.memory_bytes = static_cast<double>(parse_i64(fields[2]));
      msg.capacity.disk_bytes = static_cast<double>(parse_i64(fields[3]));
      saw_cap = true;
    } else {
      throw Error("protocol: unknown stanza '" + fields[0] + "'");
    }
  }
  if (msg.worker_name.empty()) throw Error("protocol: missing worker name");
  if (!saw_cap) throw Error("protocol: missing cap stanza");
  return msg;
}

void encode_v1(const FileMessage& msg, std::string& out) {
  if (!valid_token(msg.name)) throw Error("protocol: invalid file name " + msg.name);
  out += strformat("put %s %d\n", msg.name.c_str(), msg.cacheable ? 1 : 0);
  if (!msg.content.empty()) {
    out += "payload " + serde::base64_encode(msg.content) + "\n";
  }
  out += "end\n";
}

FileMessage decode_file_v1(const std::string& wire) {
  const auto lines = parse_lines(wire, "put");
  FileMessage msg;
  for (const auto& fields : lines) {
    if (fields[0] == "put") {
      need_fields(fields, 3);
      msg.name = fields[1];
      msg.cacheable = fields[2] == "1";
    } else if (fields[0] == "payload") {
      need_fields(fields, 2);
      msg.content = serde::base64_decode(fields[1]);
    } else {
      throw Error("protocol: unknown stanza '" + fields[0] + "'");
    }
  }
  if (msg.name.empty()) throw Error("protocol: missing file name");
  return msg;
}

void encode_v1(const ControlMessage& msg, std::string& out) {
  // peer_time rides as an optional trailing fifth field (pongs only).
  // Emitting it only when nonzero keeps default control messages
  // byte-identical to the pre-extension encoding.
  if (msg.peer_time != 0.0) {
    out += strformat("control %s %llu %.9f %.9f\n", control_type_token(msg.type),
                     static_cast<unsigned long long>(msg.nonce), msg.timestamp,
                     msg.peer_time);
  } else {
    out += strformat("control %s %llu %.9f\n", control_type_token(msg.type),
                     static_cast<unsigned long long>(msg.nonce), msg.timestamp);
  }
  out += "end\n";
}

void encode_v1(const StatsMessage& msg, std::string& out) {
  if (!valid_token(msg.source)) throw Error("protocol: invalid stats source");
  out += strformat("stats %s %lld %lld %lld\n", msg.source.c_str(),
                   static_cast<long long>(msg.workers),
                   static_cast<long long>(msg.pending),
                   static_cast<long long>(msg.completed));
  out += strformat("fanout %lld %lld\n", static_cast<long long>(msg.fanout_bytes),
                   static_cast<long long>(msg.fanout_files));
  out += strformat("cache %lld %lld\n", static_cast<long long>(msg.cache_chunks),
                   static_cast<long long>(msg.cache_bytes));
  out += "end\n";
}

StatsMessage decode_stats_v1(const std::string& wire) {
  const auto lines = parse_lines(wire, "stats");
  StatsMessage msg;
  for (const auto& fields : lines) {
    if (fields[0] == "stats") {
      need_fields(fields, 5);
      msg.source = fields[1];
      msg.workers = parse_i64(fields[2]);
      msg.pending = parse_i64(fields[3]);
      msg.completed = parse_i64(fields[4]);
    } else if (fields[0] == "fanout") {
      need_fields(fields, 3);
      msg.fanout_bytes = parse_i64(fields[1]);
      msg.fanout_files = parse_i64(fields[2]);
    } else if (fields[0] == "cache") {
      need_fields(fields, 3);
      msg.cache_chunks = parse_i64(fields[1]);
      msg.cache_bytes = parse_i64(fields[2]);
    } else {
      throw Error("protocol: unknown stanza '" + fields[0] + "'");
    }
  }
  if (msg.source.empty()) throw Error("protocol: missing stats source");
  return msg;
}

ControlMessage decode_control_v1(const std::string& wire) {
  const auto lines = parse_lines(wire, "control");
  if (lines.size() != 1) throw Error("protocol: extra stanza in control message");
  const auto& fields = lines[0];
  if (fields.size() != 4 && fields.size() != 5) {
    throw Error("protocol: wrong field count in '" + join(fields, " ") + "'");
  }
  ControlMessage msg;
  msg.type = parse_control_type(fields[1]);
  msg.nonce = parse_u64(fields[2]);
  msg.timestamp = parse_real(fields[3]);
  if (fields.size() == 5) msg.peer_time = parse_real(fields[4]);
  return msg;
}

// Split a v1 concatenation into messages at "end" lines (field-wise, the
// same rule parse_lines applies).
std::vector<std::string> split_v1_messages(const std::string& wire) {
  std::vector<std::string> chunks;
  std::string current;
  bool any_content = false;
  for (const auto& raw : split(wire, '\n')) {
    current += raw;
    current += '\n';
    const auto fields = split_nonempty(raw, ' ');
    if (!fields.empty() && fields[0] == "end") {
      chunks.push_back(std::move(current));
      current.clear();
      any_content = false;
    } else if (!fields.empty()) {
      any_content = true;
    }
  }
  if (any_content) throw Error("protocol: message not terminated by 'end'");
  return chunks;
}

// Telemetry has no v1 text form; a v1 link simply does not ship it.
void encode_v1(const TelemetryMessage&, std::string&) {
  throw Error("protocol: telemetry requires wire v2");
}

TelemetryMessage decode_telemetry_v1(const std::string&) {
  throw Error("protocol: telemetry requires wire v2");
}

// --- v2 binary frames -------------------------------------------------------
//
// Each message body is described once, by a `layout(io, msg)` overload that
// walks its fields in wire order. Three Io types drive every layout:
//   ByteCounter   sums the body size (reserve, batch length prefixes,
//                 encoded_size, task_body_size_v2);
//   StringWriter  appends the bytes to the string the encode path returns;
//   BodyReader    reads them back from one bounded body, with the decode
//                 checks.
// The encoders see a const message, the reader a mutable one. The Io calls:
//   varint svarint real str bytes   the serde wire primitives
//   u8(v, lo, hi, what)             one byte; the reader rejects values
//                                   outside [lo, hi]
//   token(s, what)                  a string the writer requires to be a
//                                   valid_token, as v1 does
//   list(v, each)                   varint count, then each element
//   trailing(present)               a trailing extension: written when
//                                   `present`, read when body bytes remain
//                                   (a reader is always bounded to exactly
//                                   one body, batch entries included)
//   require(ok, what)               a check the reader makes on the body

template <class Msg, class... Kinds>
concept OneOf = (std::same_as<std::remove_const_t<Msg>, Kinds> || ...);

// The task layout over dispatch-time fields: the simulated master's wire
// accounting runs the counter over these without building a TaskMessage.
// Its outfiles are unnamed, so each counts as an empty name.
struct TaskFields {
  uint64_t task_id;
  const std::string& category;
  const std::string& command_line;
  const alloc::Resources& allocation;
  const std::vector<InputFile>& infiles;
  std::vector<std::string> outfiles;
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
};

template <class Io, OneOf<TaskMessage, TaskFields> Msg>
void layout(Io& io, Msg& m) {
  io.varint(m.task_id);
  io.token(m.category, "invalid category token");
  io.str(m.command_line);
  io.real(m.allocation.cores);
  io.real(m.allocation.memory_bytes);
  io.real(m.allocation.disk_bytes);
  io.list(m.infiles, [&](auto& f) {
    io.token(f.name, "invalid file name");
    io.svarint(f.size_bytes);
    io.u8(f.cacheable, 0, 1, "bad cacheable byte");
  });
  io.list(m.outfiles, [&](auto& name) { io.token(name, "invalid file name"); });
  // Trace context extension: present only when traced, so untraced frames
  // stay byte-identical to the pre-extension encoding.
  if (io.trailing(m.trace_id != 0)) {
    io.varint(m.trace_id);
    io.varint(m.parent_span);
  }
  io.require(m.task_id != 0, "missing task id");
}

template <class Io, OneOf<ResultMessage> Msg>
void layout(Io& io, Msg& m) {
  io.varint(m.task_id);
  io.svarint(m.exit_code);
  // Bit 0: exhausted, a resource name follows. Bit 1: a payload follows.
  uint8_t flags = (m.exhausted ? 1 : 0) | (m.payload.empty() ? 0 : 2);
  io.u8(flags, 0, 3, "unknown result flags");
  if constexpr (!std::is_const_v<Msg>) m.exhausted = (flags & 1) != 0;
  if (flags & 1) io.token(m.exhausted_resource, "invalid resource token");
  io.real(m.cores_used);
  io.svarint(m.memory_peak_bytes);
  io.svarint(m.disk_peak_bytes);
  io.real(m.wall_seconds);
  // Raw payload bytes — the v1 base64 detour (+33% bytes, one extra full
  // copy each way) is exactly what v2 exists to remove.
  if (flags & 2) io.bytes(m.payload);
  if (io.trailing(m.trace_id != 0)) io.varint(m.trace_id);
  io.require(m.task_id != 0, "missing task id");
}

template <class Io, OneOf<HelloMessage> Msg>
void layout(Io& io, Msg& m) {
  io.token(m.worker_name, "invalid worker name");
  io.u8(m.preferred, 1, 2, "bad hello version");
  io.real(m.capacity.cores);
  io.real(m.capacity.memory_bytes);
  io.real(m.capacity.disk_bytes);
  io.require(!m.worker_name.empty(), "missing worker name");
}

template <class Io, OneOf<FileMessage> Msg>
void layout(Io& io, Msg& m) {
  io.token(m.name, "invalid file name");
  io.u8(m.cacheable, 0, 1, "bad cacheable byte");
  io.bytes(m.content);
  io.require(!m.name.empty(), "missing file name");
}

template <class Io, OneOf<ControlMessage> Msg>
void layout(Io& io, Msg& m) {
  io.u8(m.type, 1, 3, "unknown control type");
  io.varint(m.nonce);
  io.real(m.timestamp);
  if (io.trailing(m.peer_time != 0.0)) io.real(m.peer_time);
}

template <class Io, OneOf<StatsMessage> Msg>
void layout(Io& io, Msg& m) {
  io.token(m.source, "invalid stats source");
  io.svarint(m.workers);
  io.svarint(m.pending);
  io.svarint(m.completed);
  io.svarint(m.fanout_bytes);
  io.svarint(m.fanout_files);
  io.svarint(m.cache_chunks);
  io.svarint(m.cache_bytes);
  io.require(!m.source.empty(), "missing stats source");
}

template <class Io, OneOf<TelemetryMessage> Msg>
void layout(Io& io, Msg& m) {
  io.token(m.source, "invalid telemetry source");
  io.varint(m.process_id);
  io.real(m.clock_offset);
  io.svarint(m.dropped);
  io.list(m.events, [&](auto& ev) {
    io.u8(ev.ph);
    io.varint(ev.pid);
    io.varint(ev.tid);
    io.varint(ev.trace_id);
    io.real(ev.ts);
    io.real(ev.dur);
    io.str(ev.name);
    io.str(ev.cat);
    io.str(ev.akey0);
    io.real(ev.aval0);
    io.str(ev.akey1);
    io.real(ev.aval1);
    io.str(ev.skey);
    io.str(ev.sval);
  });
  io.list(m.counters, [&](auto& kv) {
    io.str(kv.first);
    io.svarint(kv.second);
  });
  io.list(m.gauges, [&](auto& kv) {
    io.str(kv.first);
    io.real(kv.second);
  });
  io.require(!m.source.empty(), "missing telemetry source");
}

class ByteCounter {
 public:
  size_t bytes() const { return n_; }

  void varint(uint64_t v) { n_ += serde::varint_size(v); }
  void svarint(int64_t v) { varint(serde::zigzag(v)); }
  template <class T>
  void u8(T, uint8_t = 0, uint8_t = 255, const char* = nullptr) { n_ += 1; }
  void real(double) { n_ += 8; }
  void str(std::string_view s) { n_ += serde::varint_size(s.size()) + s.size(); }
  void token(std::string_view s, const char*) { str(s); }
  void bytes(const serde::Bytes& b) { n_ += serde::varint_size(b.size()) + b.size(); }
  template <class Vec, class Fn>
  void list(const Vec& v, Fn&& each) {
    varint(v.size());
    for (const auto& e : v) each(e);
  }
  bool trailing(bool present) const { return present; }
  void require(bool, const char*) const {}

 private:
  size_t n_ = 0;
};

// Appends the same bytes serde::Writer would produce, but directly into the
// std::string the encode paths return. The previous scheme built each frame
// in a scratch serde::Bytes and copied it into the string afterwards; for
// batch frames (~145 KB at batch=128) that doubled the memory traffic on a
// buffer too large for L1 and churned two short-lived large allocations per
// frame, capping result/v2+batch encode at ~1.4M msgs/s while the single
// path ran at ~3.2M (see BENCH_wire.json). Writing once into the reserved
// return string removes the copy and the extra allocation.
class StringWriter {
 public:
  explicit StringWriter(std::string& out) : out_(out) {}

  void varint(uint64_t v) {
    while (v >= 0x80) {
      out_.push_back(static_cast<char>(static_cast<uint8_t>(v) | 0x80));
      v >>= 7;
    }
    out_.push_back(static_cast<char>(static_cast<uint8_t>(v)));
  }
  void svarint(int64_t v) { varint(serde::zigzag(v)); }
  template <class T>
  void u8(T v, uint8_t = 0, uint8_t = 255, const char* = nullptr) {
    out_.push_back(static_cast<char>(static_cast<uint8_t>(v)));
  }
  void real(double d) {
    char raw[8];
    std::memcpy(raw, &d, 8);
    out_.append(raw, 8);
  }
  void str(std::string_view s) {
    varint(s.size());
    out_.append(s.data(), s.size());
  }
  void token(const std::string& s, const char* what) {
    if (!valid_token(s)) throw Error(std::string("protocol: ") + what + " '" + s + "'");
    str(s);
  }
  void bytes(const serde::Bytes& b) {
    varint(b.size());
    out_.append(reinterpret_cast<const char*>(b.data()), b.size());
  }
  template <class Vec, class Fn>
  void list(const Vec& v, Fn&& each) {
    varint(v.size());
    for (const auto& e : v) each(e);
  }
  bool trailing(bool present) const { return present; }
  void require(bool, const char*) const {}

 private:
  std::string& out_;
};

class BodyReader {
 public:
  explicit BodyReader(serde::Reader& r) : r_(r) {}

  template <class T>
  void varint(T& v) {
    v = static_cast<T>(r_.varint());
  }
  template <class T>
  void svarint(T& v) {
    const int64_t x = r_.svarint();
    if (x < std::numeric_limits<T>::min() || x > std::numeric_limits<T>::max()) {
      throw Error("protocol: integer field out of range");
    }
    v = static_cast<T>(x);
  }
  template <class T>
  void u8(T& v, uint8_t lo = 0, uint8_t hi = 255, const char* what = nullptr) {
    const uint8_t b = r_.u8();
    if (b < lo || b > hi) throw Error(std::string("protocol: ") + what);
    v = static_cast<T>(b);
  }
  void real(double& d) { d = r_.real(); }
  void str(std::string& s) { s = r_.str(); }
  void token(std::string& s, const char*) { str(s); }
  void bytes(serde::Bytes& b) {
    const serde::BytesView v = r_.bytes();
    b.assign(v.begin(), v.end());
  }
  template <class Vec, class Fn>
  void list(Vec& v, Fn&& each) {
    const uint64_t n = r_.varint();
    // A hostile count reserves no more than the bytes left could back.
    v.reserve(std::min<size_t>(n, r_.remaining()));
    for (uint64_t i = 0; i < n; ++i) each(v.emplace_back());
  }
  bool trailing(bool) const { return r_.remaining() > 0; }
  void require(bool ok, const char* what) const {
    if (!ok) throw Error(std::string("protocol: ") + what);
  }

 private:
  serde::Reader& r_;
};

template <class Msg>
size_t body_size(const Msg& msg) {
  ByteCounter counter;
  layout(counter, msg);
  return counter.bytes();
}

// Read one bounded body through its layout; a byte left over is an error.
template <class Msg>
Msg read_body(serde::Reader& r, const char* leftover) {
  Msg msg;
  BodyReader reader(r);
  layout(reader, msg);
  if (r.remaining() != 0) throw Error(leftover);
  return msg;
}

size_t frame_size(size_t body_len) {
  return kFrameFixedHeader + serde::varint_size(body_len) + body_len;
}

// Reserve the whole frame, then write header and body straight into it.
template <class WriteBody>
std::string write_frame(uint8_t type, size_t body_len, WriteBody&& write_body) {
  std::string out;
  out.reserve(frame_size(body_len));
  StringWriter w(out);
  w.u8(kFrameMagic0);
  w.u8(kFrameMagic1);
  w.u8(kFrameVersion);
  w.u8(type);
  w.varint(body_len);
  write_body(w);
  return out;
}

template <class Msg>
std::string encode_batch_v2(const std::vector<Msg>& msgs, uint8_t type) {
  std::vector<size_t> sizes;
  sizes.reserve(msgs.size());
  size_t body_len = serde::varint_size(msgs.size());
  for (const auto& msg : msgs) {
    sizes.push_back(body_size(msg));
    body_len += serde::varint_size(sizes.back()) + sizes.back();
  }
  return write_frame(type, body_len, [&](StringWriter& w) {
    w.varint(msgs.size());
    for (size_t i = 0; i < msgs.size(); ++i) {
      w.varint(sizes[i]);
      layout(w, msgs[i]);
    }
  });
}

struct Frame {
  uint8_t type = 0;
  serde::Reader body{nullptr, 0};
};

// Validate the frame header and return a reader over exactly the body.
Frame parse_frame(const std::string& wire) {
  serde::Reader r(reinterpret_cast<const uint8_t*>(wire.data()), wire.size());
  if (r.u8() != kFrameMagic0 || r.u8() != kFrameMagic1) {
    throw Error("protocol: bad frame magic");
  }
  const uint8_t version = r.u8();
  if (version != kFrameVersion) {
    throw Error("protocol: unsupported wire version " + std::to_string(version));
  }
  Frame frame;
  frame.type = r.u8();
  const uint64_t body_len = r.varint();
  // Reject a hostile/corrupt length prefix against the configured cap BEFORE
  // any comparison that could be read as "keep buffering": a crafted 16-byte
  // header claiming a 2^60-byte body must die here, not OOM a reassembler.
  if (body_len > g_max_frame_body_bytes.load(std::memory_order_relaxed)) {
    throw Error("protocol: frame body length " + std::to_string(body_len) +
                " exceeds limit " +
                std::to_string(g_max_frame_body_bytes.load(std::memory_order_relaxed)));
  }
  if (body_len != r.remaining()) {
    throw Error(body_len > r.remaining() ? "protocol: truncated frame"
                                         : "protocol: trailing garbage after frame");
  }
  frame.body = serde::Reader(
      reinterpret_cast<const uint8_t*>(wire.data()) + r.pos(), r.remaining());
  return frame;
}

// Reader errors come branded "pickle:"; rebrand for protocol consumers
// while passing protocol-originated errors through untouched.
[[noreturn]] void rethrow_as_protocol(const Error& e) {
  const std::string what = e.what();
  if (what.rfind("protocol:", 0) == 0) throw e;
  throw Error("protocol: malformed v2 frame (" + what + ")");
}

template <typename Fn>
auto protocol_guard(Fn&& fn) {
  try {
    return fn();
  } catch (const Error& e) {
    rethrow_as_protocol(e);
  }
}

// The shared encode/decode paths behind the public overloads: v1 messages
// go to their text codec, v2 ones through the message's layout.
template <class Msg>
std::string encode_message(const Msg& msg, WireVersion version, uint8_t type) {
  std::string out;
  if (version == WireVersion::kV1) {
    encode_v1(msg, out);
  } else {
    out = write_frame(type, body_size(msg), [&](StringWriter& w) { layout(w, msg); });
  }
  count_encoded(out.size(), 1);
  return out;
}

template <class Msg>
std::string encode_batch_message(const std::vector<Msg>& msgs, WireVersion version,
                                 uint8_t type) {
  std::string out;
  if (version == WireVersion::kV1) {
    for (const auto& msg : msgs) encode_v1(msg, out);
  } else {
    out = encode_batch_v2(msgs, type);
  }
  count_encoded(out.size(), msgs.size());
  return out;
}

template <class Msg>
Msg decode_message(const std::string& wire, Msg (*decode_v1)(const std::string&),
                   uint8_t type, const char* what) {
  count_decoded(wire.size());
  if (detect_version(wire) == WireVersion::kV1) return decode_v1(wire);
  return protocol_guard([&] {
    Frame frame = parse_frame(wire);
    if (frame.type != type) {
      throw Error(std::string("protocol: expected '") + what + "' message");
    }
    return read_body<Msg>(frame.body, "protocol: trailing garbage after frame");
  });
}

template <class Msg>
std::vector<Msg> decode_batch_message(const std::string& wire,
                                      Msg (*decode_v1)(const std::string&),
                                      uint8_t single_type, uint8_t batch_type) {
  count_decoded(wire.size());
  if (detect_version(wire) == WireVersion::kV1) {
    std::vector<Msg> out;
    for (const auto& chunk : split_v1_messages(wire)) out.push_back(decode_v1(chunk));
    return out;
  }
  return protocol_guard([&] {
    std::vector<Msg> out;
    Frame frame = parse_frame(wire);
    if (frame.type == single_type) {
      out.push_back(read_body<Msg>(frame.body, "protocol: trailing garbage after frame"));
      return out;
    }
    if (frame.type != batch_type) {
      throw Error("protocol: unexpected frame type " + std::to_string(frame.type));
    }
    const uint64_t count = frame.body.varint();
    out.reserve(std::min<size_t>(count, frame.body.remaining()));
    for (uint64_t i = 0; i < count; ++i) {
      const uint64_t len = frame.body.varint();
      if (len > frame.body.remaining()) throw Error("protocol: truncated frame");
      // Bound each entry to its own reader: "bytes remain" means a trailing
      // extension of THIS entry, not the entries that follow it.
      serde::Reader entry(frame.body.raw(len), len);
      out.push_back(read_body<Msg>(entry, "protocol: batch entry length mismatch"));
    }
    if (frame.body.remaining() != 0) throw Error("protocol: trailing garbage after frame");
    return out;
  });
}

template <class Msg>
size_t encoded_size_of(const Msg& msg, WireVersion version) {
  if (version == WireVersion::kV2) return frame_size(body_size(msg));
  std::string out;
  encode_v1(msg, out);
  return out.size();
}

}  // namespace

bool valid_token(const std::string& token) {
  if (token.empty()) return false;
  for (const char c : token) {
    if (std::isspace(static_cast<unsigned char>(c)) ||
        std::iscntrl(static_cast<unsigned char>(c))) {
      return false;
    }
  }
  return true;
}

WireVersion detect_version(const std::string& wire) {
  if (wire.empty()) throw Error("protocol: empty message");
  return static_cast<uint8_t>(wire[0]) == kFrameMagic0 ? WireVersion::kV2
                                                       : WireVersion::kV1;
}

std::string encode(const TaskMessage& msg, WireVersion version) {
  return encode_message(msg, version, kFrameTask);
}

std::string encode(const ResultMessage& msg, WireVersion version) {
  return encode_message(msg, version, kFrameResult);
}

std::string encode(const HelloMessage& msg, WireVersion version) {
  return encode_message(msg, version, kFrameHello);
}

std::string encode(const FileMessage& msg, WireVersion version) {
  return encode_message(msg, version, kFrameFile);
}

std::string encode(const ControlMessage& msg, WireVersion version) {
  return encode_message(msg, version, kFrameControl);
}

std::string encode(const StatsMessage& msg, WireVersion version) {
  return encode_message(msg, version, kFrameStats);
}

std::string encode(const TelemetryMessage& msg, WireVersion version) {
  return encode_message(msg, version, kFrameTelemetry);
}

std::string encode_batch(const std::vector<TaskMessage>& msgs, WireVersion version) {
  return encode_batch_message(msgs, version, kFrameTaskBatch);
}

std::string encode_batch(const std::vector<ResultMessage>& msgs, WireVersion version) {
  return encode_batch_message(msgs, version, kFrameResultBatch);
}

TaskMessage decode_task(const std::string& wire) {
  return decode_message(wire, decode_task_v1, kFrameTask, "task");
}

ResultMessage decode_result(const std::string& wire) {
  return decode_message(wire, decode_result_v1, kFrameResult, "result");
}

HelloMessage decode_hello(const std::string& wire) {
  return decode_message(wire, decode_hello_v1, kFrameHello, "hello");
}

FileMessage decode_file(const std::string& wire) {
  return decode_message(wire, decode_file_v1, kFrameFile, "put");
}

ControlMessage decode_control(const std::string& wire) {
  return decode_message(wire, decode_control_v1, kFrameControl, "control");
}

StatsMessage decode_stats(const std::string& wire) {
  return decode_message(wire, decode_stats_v1, kFrameStats, "stats");
}

TelemetryMessage decode_telemetry(const std::string& wire) {
  return decode_message(wire, decode_telemetry_v1, kFrameTelemetry, "telemetry");
}

std::vector<TaskMessage> decode_task_batch(const std::string& wire) {
  return decode_batch_message(wire, decode_task_v1, kFrameTask, kFrameTaskBatch);
}

std::vector<ResultMessage> decode_result_batch(const std::string& wire) {
  return decode_batch_message(wire, decode_result_v1, kFrameResult, kFrameResultBatch);
}

MessageKind classify(const std::string& wire) {
  if (detect_version(wire) == WireVersion::kV2) {
    if (wire.size() < kFrameFixedHeader) throw Error("protocol: truncated frame");
    if (static_cast<uint8_t>(wire[1]) != kFrameMagic1 ||
        static_cast<uint8_t>(wire[2]) != kFrameVersion) {
      throw Error("protocol: bad frame magic");
    }
    switch (static_cast<uint8_t>(wire[3])) {
      case kFrameTask: return MessageKind::kTask;
      case kFrameResult: return MessageKind::kResult;
      case kFrameTaskBatch: return MessageKind::kTaskBatch;
      case kFrameResultBatch: return MessageKind::kResultBatch;
      case kFrameHello: return MessageKind::kHello;
      case kFrameFile: return MessageKind::kFile;
      case kFrameControl: return MessageKind::kControl;
      case kFrameStats: return MessageKind::kStats;
      case kFrameTelemetry: return MessageKind::kTelemetry;
    }
    throw Error("protocol: unexpected frame type " +
                std::to_string(static_cast<unsigned>(wire[3])));
  }
  // v1: the first token of the first non-empty line, scanned in place (no
  // line splitting — this runs per inbound message on the net demux path).
  size_t i = 0;
  while (i < wire.size() &&
         std::isspace(static_cast<unsigned char>(wire[i]))) {
    ++i;
  }
  size_t j = i;
  while (j < wire.size() && !std::isspace(static_cast<unsigned char>(wire[j]))) {
    ++j;
  }
  const std::string head = wire.substr(i, j - i);
  if (head == "task") return MessageKind::kTask;
  if (head == "result") return MessageKind::kResult;
  if (head == "hello") return MessageKind::kHello;
  if (head == "put") return MessageKind::kFile;
  if (head == "control") return MessageKind::kControl;
  if (head == "stats") return MessageKind::kStats;
  throw Error("protocol: unknown message head '" + head + "'");
}

size_t max_frame_body_bytes() {
  return g_max_frame_body_bytes.load(std::memory_order_relaxed);
}

void set_max_frame_body_bytes(size_t limit) {
  g_max_frame_body_bytes.store(limit == 0 ? kDefaultMaxFrameBodyBytes : limit,
                               std::memory_order_relaxed);
}

size_t encoded_size(const TaskMessage& msg, WireVersion version) {
  return encoded_size_of(msg, version);
}

size_t encoded_size(const ResultMessage& msg, WireVersion version) {
  return encoded_size_of(msg, version);
}

size_t task_body_size_v2(uint64_t task_id, const std::string& category,
                         const std::string& command, const alloc::Resources& alloc,
                         const std::vector<InputFile>& inputs, size_t outfile_count) {
  return body_size(TaskFields{task_id, category, command, alloc, inputs,
                              std::vector<std::string>(outfile_count)});
}

size_t batch_entry_size(size_t body_size) {
  return serde::varint_size(body_size) + body_size;
}

size_t batch_frame_size(size_t count, size_t prefixed_body_bytes) {
  const size_t body_len = serde::varint_size(count) + prefixed_body_bytes;
  return kFrameFixedHeader + serde::varint_size(body_len) + body_len;
}

}  // namespace lfm::wq
