// Tests for the content-addressed chunk layer (DESIGN.md §12): content-
// defined chunking invariants, manifest encode/decode round-trip (including
// a randomized fuzz pass), chunk-store eviction under a tiny capacity, the
// serial-vs-parallel byte-identity guarantee of the pack pipeline, the
// pack pipeline against a write_tar reference and its package-block memo,
// and the worker-side chunk cache model that drives delta distribution.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "obs/recorder.h"
#include "pkg/chunk.h"
#include "pkg/environment.h"
#include "pkg/index.h"
#include "pkg/packer.h"
#include "sim/chunkcache.h"
#include "util/hash.h"

namespace lfm::pkg {
namespace {

Bytes pattern_bytes(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng());
  return out;
}

Environment resolve_roots(const std::string& name, const std::vector<std::string>& roots,
                          const PackageIndex& index = standard_index()) {
  Solver solver(index);
  std::vector<Requirement> reqs;
  for (const std::string& root : roots) reqs.push_back(Requirement::parse(root));
  auto result = solver.resolve(reqs);
  EXPECT_TRUE(result.ok());
  return Environment(name, result.value());
}

Environment resolve_env(const std::string& name, const std::string& root) {
  return resolve_roots(name, {root});
}

// The sibling set of the fed-env benchmark workload: four environments that
// share python and the numpy base.
std::vector<Environment> sibling_envs() {
  std::vector<Environment> envs;
  envs.push_back(resolve_roots("sib-numpy-scipy", {"numpy", "scipy"}));
  envs.push_back(resolve_roots("sib-pandas", {"pandas"}));
  envs.push_back(resolve_roots("sib-sklearn", {"scikit-learn"}));
  envs.push_back(resolve_roots("sib-matplotlib-pandas", {"matplotlib", "pandas"}));
  return envs;
}

// What packed_environment must produce, built the plain way: one Archive
// entry per synthesized file, serialized by write_tar.
Bytes reference_tar(const Environment& env) {
  const std::string signature = env.requirements_txt();
  const std::string dist = "prefix=" + packed_environment_prefix(env) + "\n";
  Archive archive;
  archive.add_file("requirements.txt", Bytes(signature.begin(), signature.end()));
  std::string manifest;
  for (const EnvironmentFile& f : env.synthesize_files()) {
    if (f.is_text) {
      archive.add_file(f.path, Bytes(dist.begin(), dist.end()));
    } else {
      manifest += f.path + " " + std::to_string(f.size) + "\n";
    }
  }
  archive.add_file("MANIFEST", Bytes(manifest.begin(), manifest.end()));
  return write_tar(archive);
}

int64_t package_block_hits() {
  return obs::Recorder::global().metrics().counter("pack.package_block_hits").value();
}

// --- chunk_bytes ------------------------------------------------------------

TEST(ChunkBytes, SizesPartitionInputWithinBounds) {
  const ChunkParams params;
  const Bytes data = pattern_bytes(200000, 7);
  const auto chunks = chunk_bytes(data.data(), data.size(), params);
  ASSERT_FALSE(chunks.empty());
  size_t total = 0;
  for (size_t i = 0; i < chunks.size(); ++i) {
    total += chunks[i].size;
    EXPECT_LE(chunks[i].size, params.max_size);
    // Every chunk but the trailing remainder respects the minimum.
    if (i + 1 < chunks.size()) EXPECT_GE(chunks[i].size, params.min_size);
  }
  EXPECT_EQ(total, data.size());
}

TEST(ChunkBytes, DeterministicAndPositionIndependent) {
  const Bytes data = pattern_bytes(65536, 11);
  const auto a = chunk_bytes(data.data(), data.size());
  const auto b = chunk_bytes(data.data(), data.size());
  EXPECT_EQ(a, b);
}

TEST(ChunkBytes, EmptyInputYieldsNoChunks) {
  EXPECT_TRUE(chunk_bytes(nullptr, 0).empty());
}

TEST(ChunkBytes, SharedContentProducesSharedChunks) {
  // Two streams with a large identical region chunk that region identically
  // (the property delta distribution relies on): count digests of one
  // stream's chunks found in the other's.
  const Bytes shared = pattern_bytes(100000, 3);
  Bytes a = pattern_bytes(4096, 4);
  a.insert(a.end(), shared.begin(), shared.end());
  Bytes b = pattern_bytes(9000, 5);
  b.insert(b.end(), shared.begin(), shared.end());

  const auto ca = chunk_bytes(a.data(), a.size());
  const auto cb = chunk_bytes(b.data(), b.size());
  size_t common = 0;
  for (const auto& x : ca) {
    for (const auto& y : cb) {
      if (x == y) {
        ++common;
        break;
      }
    }
  }
  // The differing prefixes desynchronize only the first few boundaries.
  EXPECT_GE(common, ca.size() / 2);
}

// --- ChunkManifest encode/decode --------------------------------------------

ChunkManifest manifest_from(const Bytes& data) {
  ChunkManifest m;
  m.append(chunk_bytes(data.data(), data.size()));
  m.set_stream_digest(hash64(
      std::string_view(reinterpret_cast<const char*>(data.data()), data.size())));
  return m;
}

TEST(ChunkManifest, EncodeDecodeRoundTrip) {
  const Bytes data = pattern_bytes(50000, 21);
  const ChunkManifest m = manifest_from(data);
  const ChunkManifest back = ChunkManifest::decode(m.encode());
  EXPECT_EQ(m, back);
  EXPECT_EQ(back.total_bytes(), static_cast<int64_t>(data.size()));
}

TEST(ChunkManifest, EmptyRoundTrip) {
  const ChunkManifest empty;
  EXPECT_EQ(ChunkManifest::decode(empty.encode()), empty);
}

TEST(ChunkManifest, DecodeRejectsTruncation) {
  const Bytes wire = manifest_from(pattern_bytes(30000, 22)).encode();
  for (const size_t keep : {size_t{0}, size_t{1}, wire.size() / 2, wire.size() - 1}) {
    Bytes cut(wire.begin(), wire.begin() + static_cast<long>(keep));
    EXPECT_THROW(ChunkManifest::decode(cut), Error) << "kept " << keep;
  }
}

TEST(ChunkManifest, DecodeRejectsTrailingGarbage) {
  Bytes wire = manifest_from(pattern_bytes(10000, 23)).encode();
  wire.push_back(0x00);
  EXPECT_THROW(ChunkManifest::decode(wire), Error);
}

TEST(ChunkManifest, FuzzRoundTripAndCorruption) {
  std::mt19937_64 rng(0xC0FFEE);
  for (int iter = 0; iter < 200; ++iter) {
    // Random manifest: random chunk count, sizes, digests.
    ChunkManifest m;
    const size_t n = rng() % 64;
    for (size_t i = 0; i < n; ++i) {
      m.append(ChunkRef{rng(), static_cast<uint32_t>(1 + rng() % 100000)});
    }
    m.set_stream_digest(rng());
    const Bytes wire = m.encode();
    EXPECT_EQ(ChunkManifest::decode(wire), m);

    if (wire.empty()) continue;
    // Single-byte corruption must never round-trip to the original: either
    // decode throws, or it yields a manifest that compares unequal.
    Bytes bad = wire;
    bad[rng() % bad.size()] ^= static_cast<uint8_t>(1 + rng() % 255);
    try {
      const ChunkManifest decoded = ChunkManifest::decode(bad);
      EXPECT_NE(decoded, m);
    } catch (const Error&) {
      // rejection is equally acceptable
    }
  }
}

// --- ChunkStore -------------------------------------------------------------

TEST(ChunkStore, PutReadRoundTrip) {
  ChunkStore store(1 << 20);
  const auto backing = std::make_shared<const Bytes>(pattern_bytes(10000, 31));
  const auto chunks = chunk_bytes(backing->data(), backing->size());
  size_t offset = 0;
  for (const auto& c : chunks) {
    store.put(c, backing, offset);
    offset += c.size;
  }
  Bytes out;
  for (const auto& c : chunks) {
    EXPECT_TRUE(store.contains(c));
    store.read(c, out);
  }
  EXPECT_EQ(out, *backing);
  EXPECT_EQ(store.stats().chunks, static_cast<int64_t>(chunks.size()));
}

TEST(ChunkStore, EvictsLruUnderTinyCapacity) {
  ChunkStore store(3000);  // fits only a couple of chunks
  const auto backing = std::make_shared<const Bytes>(pattern_bytes(50000, 32));
  const auto chunks = chunk_bytes(backing->data(), backing->size());
  ASSERT_GT(chunks.size(), 3u);
  size_t offset = 0;
  for (const auto& c : chunks) {
    store.put(c, backing, offset);
    offset += c.size;
  }
  const auto stats = store.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_GE(stats.chunks, 1);  // never evicts the sole survivor
  // Whatever remains must still read back correctly; the earliest chunk
  // must be the evicted one (LRU order).
  EXPECT_FALSE(store.contains(chunks.front()));
  EXPECT_TRUE(store.contains(chunks.back()));
  Bytes out;
  store.read(chunks.back(), out);
  EXPECT_THROW(store.read(chunks.front(), out), Error);
}

TEST(ChunkStore, DetectsDigestCollision) {
  ChunkStore store;
  const auto b1 = std::make_shared<const Bytes>(pattern_bytes(1024, 33));
  const auto b2 = std::make_shared<const Bytes>(pattern_bytes(1024, 34));
  const ChunkRef ref{0xDEADBEEF, 1024};
  store.put(ref, b1, 0);
  store.put(ref, b1, 0);  // identical payload: dedup hit, no throw
  EXPECT_EQ(store.stats().dedup_hits, 1);
  EXPECT_THROW(store.put(ref, b2, 0), Error);  // same digest, different bytes
}

// --- serial vs parallel pack byte-identity ----------------------------------

TEST(ChunkStore, ChunkIntoStoreReassemblesBitIdenticallyAndDedups) {
  // chunk_into_store is the one-call ingest path the fed foreman uses on
  // every inbound file frame: chunk, insert, manifest with stream digest.
  ChunkStore store(1 << 20);
  const auto backing = std::make_shared<const Bytes>(pattern_bytes(40000, 35));
  const ChunkManifest manifest = chunk_into_store(backing, store);

  EXPECT_EQ(manifest.total_bytes(), static_cast<int64_t>(backing->size()));
  EXPECT_GT(manifest.chunk_count(), 1u);
  EXPECT_EQ(reassemble(manifest, store), *backing);

  // Re-ingesting the same bytes is answered entirely from the store.
  const auto first = store.stats();
  const ChunkManifest again = chunk_into_store(backing, store);
  EXPECT_TRUE(again == manifest);
  const auto second = store.stats();
  EXPECT_EQ(second.inserts, first.inserts);
  EXPECT_EQ(second.dedup_hits,
            first.dedup_hits + static_cast<int64_t>(manifest.chunk_count()));

  // A shifted copy (one byte prepended) still shares most chunks: CDC
  // boundaries re-synchronize, so the second manifest mostly dedups.
  Bytes shifted;
  shifted.push_back(0x5A);
  shifted.insert(shifted.end(), backing->begin(), backing->end());
  const auto shifted_backing = std::make_shared<const Bytes>(std::move(shifted));
  const ChunkManifest shifted_manifest =
      chunk_into_store(shifted_backing, store);
  const auto third = store.stats();
  EXPECT_GT(third.dedup_hits, second.dedup_hits);
  EXPECT_EQ(reassemble(shifted_manifest, store), *shifted_backing);
}

TEST(PackPipeline, ByteIdenticalAcrossThreadCounts) {
  const Environment env = resolve_env("chunk-par", "coffea");
  clear_pack_cache();
  const PackedEnvironment serial = packed_environment(env, 1);
  ASSERT_TRUE(serial.tar && serial.manifest);
  for (const int threads : {2, 3, 8}) {
    clear_pack_cache();  // force a cold re-pack at this thread count
    const PackedEnvironment parallel = packed_environment(env, threads);
    EXPECT_EQ(*parallel.tar, *serial.tar) << threads << " threads";
    EXPECT_EQ(*parallel.manifest, *serial.manifest) << threads << " threads";
  }
}

TEST(PackPipeline, ManifestReassemblesToPackedTar) {
  const Environment env = resolve_env("chunk-re", "scipy");
  clear_pack_cache();
  const PackedEnvironment packed = packed_environment(env, 2);
  const Bytes rebuilt = reassemble(*packed.manifest, global_chunk_store());
  EXPECT_EQ(rebuilt, *packed.tar);
  EXPECT_EQ(packed.manifest->total_bytes(),
            static_cast<int64_t>(packed.tar->size()));
}

TEST(PackPipeline, SiblingEnvironmentsSharePackageChunks) {
  // Environments sharing the numpy stack must share those packages' chunks —
  // that overlap is exactly what delta distribution avoids re-shipping.
  clear_pack_cache();
  const Environment a = resolve_env("sib-a", "scipy");
  const Environment b = resolve_env("sib-b", "pandas");
  const PackedEnvironment pa = packed_environment(a);
  const PackedEnvironment pb = packed_environment(b);
  sim::ChunkCacheModel cache(1LL << 40);
  cache.admit(*pa.manifest);
  const int64_t missing = cache.missing_bytes(*pb.manifest);
  EXPECT_LT(missing, pb.manifest->total_bytes());  // some overlap reused
  EXPECT_GT(missing, 0);  // but pandas' own bytes still ship
}

TEST(PackPipeline, MatchesWriteTarOfSynthesizedFiles) {
  std::vector<Environment> envs = sibling_envs();
  // The .so branch and an empty package (its dist-info entry, no lines).
  PackageIndex index;
  PackageMeta native;
  native.name = "native-ext";
  native.version = Version::parse("2.0");
  native.size_bytes = 1 << 20;
  native.file_count = 30;
  native.has_native_libs = true;
  index.add(native);
  PackageMeta empty;
  empty.name = "empty-meta";
  empty.version = Version::parse("0.1");
  empty.file_count = 0;
  index.add(empty);
  envs.push_back(resolve_roots("native-and-empty", {"native-ext", "empty-meta"}, index));
  for (const Environment& env : envs) {
    const Bytes expected = reference_tar(env);
    for (const int threads : {1, 4}) {
      clear_pack_cache();
      const PackedEnvironment packed = packed_environment(env, threads);
      EXPECT_EQ(*packed.tar, expected) << env.name() << " at " << threads << " threads";
      EXPECT_EQ(reassemble(*packed.manifest, global_chunk_store()), expected)
          << env.name() << " at " << threads << " threads";
    }
  }
}

TEST(PackPipeline, WarmPackageBlocksMatchColdPack) {
  const std::vector<Environment> envs = sibling_envs();
  for (size_t b = 1; b < envs.size(); ++b) {
    clear_pack_cache();
    const PackedEnvironment cold = packed_environment(envs[b]);
    clear_pack_cache();
    packed_environment(envs[0]);  // warms the shared packages' blocks
    const PackedEnvironment warm = packed_environment(envs[b]);
    EXPECT_EQ(*warm.tar, *cold.tar) << envs[b].name();
    EXPECT_EQ(*warm.manifest, *cold.manifest) << envs[b].name();
  }
}

TEST(PackPipeline, PackageBlockHitsCountSharedPackagesAndClearWithPackCache) {
  const std::vector<Environment> envs = sibling_envs();
  obs::Recorder::global().set_enabled(true);
  obs::Recorder::global().clear();
  packed_environment(envs[3]);  // fills the memo before the clear below
  clear_pack_cache();
  const int64_t before = package_block_hits();
  packed_environment(envs[0]);
  EXPECT_EQ(package_block_hits(), before)
      << "the first environment after clear_pack_cache() found memoized blocks";
  packed_environment(envs[1]);  // shares python and numpy with envs[0]
  EXPECT_GT(package_block_hits(), before);
  obs::Recorder::global().set_enabled(false);
  obs::Recorder::global().clear();
}

}  // namespace
}  // namespace lfm::pkg

// --- sim::ChunkCacheModel ---------------------------------------------------

namespace lfm::sim {
namespace {

using pkg::ChunkManifest;
using pkg::ChunkRef;

ChunkManifest simple_manifest(std::initializer_list<ChunkRef> refs) {
  ChunkManifest m;
  for (const auto& r : refs) m.append(r);
  return m;
}

TEST(ChunkCacheModel, MissingBytesColdThenWarm) {
  ChunkCacheModel cache(1 << 20);
  const ChunkManifest m =
      simple_manifest({{1, 100}, {2, 200}, {3, 300}, {2, 200}});
  // Duplicate digest within a manifest is counted once on the wire.
  EXPECT_EQ(cache.missing_bytes(m), 600);
  cache.admit(m);
  EXPECT_EQ(cache.missing_bytes(m), 0);
  EXPECT_EQ(cache.bytes(), 600);
  EXPECT_EQ(cache.chunk_count(), 3u);
}

TEST(ChunkCacheModel, PartialOverlapShipsOnlyDelta) {
  ChunkCacheModel cache(1 << 20);
  cache.admit(simple_manifest({{1, 100}, {2, 200}}));
  EXPECT_EQ(cache.missing_bytes(simple_manifest({{2, 200}, {3, 300}})), 300);
}

TEST(ChunkCacheModel, EvictsUnderTinyCapacity) {
  ChunkCacheModel cache(500);
  cache.insert(1, 300);
  cache.insert(2, 300);  // pushes digest 1 out
  EXPECT_GT(cache.evictions(), 0);
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_LE(cache.bytes(), 500);
  // A chunk larger than the whole cache never sticks.
  cache.insert(3, 9000);
  EXPECT_FALSE(cache.contains(3));
}

TEST(ChunkCacheModel, ClearKeepsEvictionCounter) {
  ChunkCacheModel cache(100);
  cache.insert(1, 80);
  cache.insert(2, 80);
  const int64_t evicted = cache.evictions();
  EXPECT_GT(evicted, 0);
  cache.clear();
  EXPECT_EQ(cache.bytes(), 0);
  EXPECT_EQ(cache.chunk_count(), 0u);
  EXPECT_EQ(cache.evictions(), evicted);
}

}  // namespace
}  // namespace lfm::sim
