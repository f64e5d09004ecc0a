// Fast 64-bit content hashing for the content-addressed caches (parse,
// plan, solver, packer). Deterministic across runs and platforms so cache
// keys are stable; NOT cryptographic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace lfm {

// Hash `data` into 64 bits. FNV-1a over 8-byte lanes with a splitmix64
// finalizer: one multiply per 8 input bytes, full avalanche at the end.
uint64_t hash64(std::string_view data, uint64_t seed = 0);

// hash64 fed in pieces: update() over consecutive slices of a stream, then
// digest(), equals hash64 over the whole stream. Lets a digest follow a
// stream that is never contiguous, or not yet.
class Hash64Stream {
 public:
  explicit Hash64Stream(uint64_t seed = 0);
  void update(std::string_view data);
  uint64_t digest() const;

 private:
  uint64_t h_;
  uint64_t size_ = 0;
  char lane_[8] = {};  // a partial 8-byte lane carried into the next update()
  size_t lane_len_ = 0;
};

// Mix two 64-bit hashes into one (order-sensitive).
uint64_t hash_combine64(uint64_t a, uint64_t b);

// Hash functor for unordered containers keyed by content (the maps still
// compare full keys on lookup, so a 64-bit collision can never alias two
// different sources to one cache entry).
struct ContentHash {
  size_t operator()(std::string_view s) const {
    return static_cast<size_t>(hash64(s));
  }
  size_t operator()(const std::string& s) const {
    return static_cast<size_t>(hash64(s));
  }
};

}  // namespace lfm
