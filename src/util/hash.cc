#include "util/hash.h"

#include <algorithm>
#include <cstring>

namespace lfm {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

// splitmix64 finalizer: full avalanche over the accumulated state.
uint64_t mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// FNV-1a over the whole 8-byte lanes of [p, p + n): advances `p` past them
// and returns the count of trailing bytes left over.
size_t absorb_lanes(uint64_t& h, const char*& p, size_t n) {
  uint64_t acc = h;
  while (n >= 8) {
    uint64_t lane;
    std::memcpy(&lane, p, 8);  // unaligned-safe
    acc = (acc ^ lane) * kFnvPrime;
    p += 8;
    n -= 8;
  }
  h = acc;
  return n;
}

// Folds the final partial lane (zero-padded) and the total length in.
uint64_t finish(uint64_t h, const char* tail_bytes, size_t tail_len, uint64_t size) {
  uint64_t tail = 0;
  if (tail_len > 0) std::memcpy(&tail, tail_bytes, tail_len);
  h = (h ^ tail) * kFnvPrime;
  // Length folds in so "a\0" and "a" (tail-padded alike) stay distinct.
  return mix(h ^ (size * kFnvPrime));
}

}  // namespace

uint64_t hash64(std::string_view data, uint64_t seed) {
  uint64_t h = kFnvOffset ^ mix(seed);
  const char* p = data.data();
  const size_t rest = absorb_lanes(h, p, data.size());
  return finish(h, p, rest, data.size());
}

Hash64Stream::Hash64Stream(uint64_t seed) : h_(kFnvOffset ^ mix(seed)) {}

void Hash64Stream::update(std::string_view data) {
  if (data.empty()) return;  // data() may be null; memcpy must not see it
  const char* p = data.data();
  size_t n = data.size();
  size_ += n;
  if (lane_len_ > 0) {
    const size_t take = std::min(n, sizeof lane_ - lane_len_);
    std::memcpy(lane_ + lane_len_, p, take);
    lane_len_ += take;
    p += take;
    n -= take;
    if (lane_len_ < sizeof lane_) return;
    const char* lane = lane_;
    absorb_lanes(h_, lane, sizeof lane_);
  }
  lane_len_ = absorb_lanes(h_, p, n);
  std::memcpy(lane_, p, lane_len_);
}

uint64_t Hash64Stream::digest() const { return finish(h_, lane_, lane_len_, size_); }

uint64_t hash_combine64(uint64_t a, uint64_t b) {
  return mix(a * kFnvPrime + (b ^ kFnvOffset));
}

}  // namespace lfm
