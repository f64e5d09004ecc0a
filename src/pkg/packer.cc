#include "pkg/packer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <thread>

#include "obs/recorder.h"
#include "pkg/environment.h"
#include "util/hash.h"
#include "util/strings.h"

namespace lfm::pkg {
namespace fs = std::filesystem;

void Archive::add_file(std::string path, Bytes data, uint32_t mode) {
  ArchiveEntry e;
  e.path = std::move(path);
  e.data = std::move(data);
  e.mode = mode;
  entries_.push_back(std::move(e));
}

void Archive::add_directory(std::string path) {
  ArchiveEntry e;
  e.path = std::move(path);
  e.is_directory = true;
  e.mode = 0755;
  entries_.push_back(std::move(e));
}

size_t Archive::file_count() const {
  return static_cast<size_t>(
      std::count_if(entries_.begin(), entries_.end(),
                    [](const ArchiveEntry& e) { return !e.is_directory; }));
}

int64_t Archive::total_bytes() const {
  int64_t sum = 0;
  for (const auto& e : entries_) sum += static_cast<int64_t>(e.data.size());
  return sum;
}

const ArchiveEntry* Archive::find(const std::string& path) const {
  for (const auto& e : entries_) {
    if (e.path == path) return &e;
  }
  return nullptr;
}

namespace {

constexpr size_t kBlock = 512;

struct [[gnu::packed]] TarHeader {
  char name[100];
  char mode[8];
  char uid[8];
  char gid[8];
  char size[12];
  char mtime[12];
  char chksum[8];
  char typeflag;
  char linkname[100];
  char magic[6];
  char version[2];
  char uname[32];
  char gname[32];
  char devmajor[8];
  char devminor[8];
  char prefix[155];
  char pad[12];
};
static_assert(sizeof(TarHeader) == kBlock, "tar header must be one block");

void write_octal(char* field, size_t width, uint64_t value) {
  // Width includes the trailing NUL position per ustar convention. Digits
  // are written zero-padded, least-significant last.
  field[width - 1] = '\0';
  for (size_t i = width - 1; i-- > 0;) {
    field[i] = static_cast<char>('0' + (value & 7));
    value >>= 3;
  }
}

uint64_t read_octal(const char* field, size_t width) {
  uint64_t v = 0;
  for (size_t i = 0; i < width; ++i) {
    const char c = field[i];
    if (c == '\0' || c == ' ') break;
    if (c < '0' || c > '7') throw Error("tar: bad octal digit");
    v = v * 8 + static_cast<uint64_t>(c - '0');
  }
  return v;
}

void split_name(const std::string& path, TarHeader& h) {
  if (path.size() <= sizeof(h.name)) {
    std::memcpy(h.name, path.data(), path.size());
    return;
  }
  // ustar prefix/name split at a '/' boundary.
  if (path.size() > sizeof(h.name) + sizeof(h.prefix) + 1) {
    throw Error("tar: path too long: " + path);
  }
  // Find a split point: prefix <=155, name <=100.
  for (size_t cut = path.size() - 1; cut > 0; --cut) {
    if (path[cut] != '/') continue;
    const size_t prefix_len = cut;
    const size_t name_len = path.size() - cut - 1;
    if (prefix_len <= sizeof(h.prefix) && name_len <= sizeof(h.name) && name_len > 0) {
      std::memcpy(h.prefix, path.data(), prefix_len);
      std::memcpy(h.name, path.data() + cut + 1, name_len);
      return;
    }
  }
  throw Error("tar: cannot split long path: " + path);
}

void finalize_checksum(TarHeader& h) {
  std::memset(h.chksum, ' ', sizeof(h.chksum));
  const auto* bytes = reinterpret_cast<const unsigned char*>(&h);
  unsigned sum = 0;
  for (size_t i = 0; i < kBlock; ++i) sum += bytes[i];
  std::snprintf(h.chksum, sizeof(h.chksum), "%06o", sum);
  h.chksum[7] = ' ';
}

bool verify_checksum(const TarHeader& h) {
  TarHeader copy = h;
  std::memset(copy.chksum, ' ', sizeof(copy.chksum));
  const auto* bytes = reinterpret_cast<const unsigned char*>(&copy);
  unsigned sum = 0;
  for (size_t i = 0; i < kBlock; ++i) sum += bytes[i];
  return sum == read_octal(h.chksum, sizeof(h.chksum));
}

bool is_zero_block(const uint8_t* p) {
  for (size_t i = 0; i < kBlock; ++i) {
    if (p[i] != 0) return false;
  }
  return true;
}

bool looks_text(const Bytes& data) {
  const size_t probe = std::min<size_t>(data.size(), 1024);
  for (size_t i = 0; i < probe; ++i) {
    if (data[i] == 0) return false;
  }
  return true;
}

// One ustar header block for an entry whose data (if any) follows elsewhere.
// Split out of append_tar_entry so the parallel packer can emit the MANIFEST
// header before the per-package line blocks that form its payload.
void append_tar_header(Bytes& out, const std::string& raw_path, bool is_directory,
                       uint32_t mode, size_t data_size) {
  TarHeader h;
  std::memset(&h, 0, sizeof h);
  std::string path = raw_path;
  if (is_directory && !path.empty() && path.back() != '/') path += '/';
  split_name(path, h);
  write_octal(h.mode, sizeof(h.mode), mode);
  write_octal(h.uid, sizeof(h.uid), 0);
  write_octal(h.gid, sizeof(h.gid), 0);
  write_octal(h.size, sizeof(h.size), is_directory ? 0 : data_size);
  write_octal(h.mtime, sizeof(h.mtime), 0);
  h.typeflag = is_directory ? '5' : '0';
  std::memcpy(h.magic, "ustar", 6);
  h.version[0] = '0';
  h.version[1] = '0';
  std::snprintf(h.uname, sizeof(h.uname), "lfm");
  std::snprintf(h.gname, sizeof(h.gname), "lfm");
  finalize_checksum(h);

  const auto* hp = reinterpret_cast<const uint8_t*>(&h);
  out.insert(out.end(), hp, hp + kBlock);
}

void append_padding(Bytes& out, size_t data_size) {
  const size_t rem = data_size % kBlock;
  if (rem != 0) out.insert(out.end(), kBlock - rem, 0);
}

// Full serialization of one entry: header block + data + padding.
void append_tar_entry(Bytes& out, const ArchiveEntry& entry) {
  append_tar_header(out, entry.path, entry.is_directory, entry.mode, entry.data.size());
  if (!entry.is_directory) {
    out.insert(out.end(), entry.data.begin(), entry.data.end());
    append_padding(out, entry.data.size());
  }
}

void append_tar_trailer(Bytes& out) {
  // Two terminating zero blocks.
  out.insert(out.end(), 2 * kBlock, 0);
}

}  // namespace

Bytes write_tar(const Archive& archive) {
  Bytes out;
  for (const auto& entry : archive.entries()) append_tar_entry(out, entry);
  append_tar_trailer(out);
  return out;
}

Archive read_tar(const Bytes& data) {
  Archive archive;
  size_t pos = 0;
  while (pos + kBlock <= data.size()) {
    if (is_zero_block(data.data() + pos)) break;  // end-of-archive marker
    TarHeader h;
    std::memcpy(&h, data.data() + pos, kBlock);
    pos += kBlock;
    if (std::memcmp(h.magic, "ustar", 5) != 0) throw Error("tar: bad magic");
    if (!verify_checksum(h)) throw Error("tar: checksum mismatch");

    std::string path;
    if (h.prefix[0] != '\0') {
      path.assign(h.prefix, strnlen(h.prefix, sizeof(h.prefix)));
      path += '/';
    }
    path.append(h.name, strnlen(h.name, sizeof(h.name)));
    const uint64_t size = read_octal(h.size, sizeof(h.size));

    if (h.typeflag == '5') {
      if (!path.empty() && path.back() == '/') path.pop_back();
      archive.add_directory(std::move(path));
    } else if (h.typeflag == '0' || h.typeflag == '\0') {
      if (pos + size > data.size()) throw Error("tar: truncated file data");
      Bytes content(data.begin() + static_cast<long>(pos),
                    data.begin() + static_cast<long>(pos + size));
      archive.add_file(std::move(path), std::move(content),
                       static_cast<uint32_t>(read_octal(h.mode, sizeof(h.mode))));
      pos += size;
      const size_t rem = size % kBlock;
      if (rem != 0) pos += kBlock - rem;
    } else {
      throw Error(std::string("tar: unsupported entry type '") + h.typeflag + "'");
    }
  }
  return archive;
}

Archive pack_directory(const std::string& root) {
  Archive archive;
  const fs::path base(root);
  if (!fs::exists(base)) throw Error("pack_directory: no such directory: " + root);
  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(base)) {
    paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());  // deterministic archive order
  for (const auto& p : paths) {
    const std::string rel = fs::relative(p, base).string();
    if (fs::is_directory(p)) {
      archive.add_directory(rel);
    } else if (fs::is_regular_file(p)) {
      std::ifstream in(p, std::ios::binary);
      Bytes content((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
      archive.add_file(rel, std::move(content));
    }
  }
  return archive;
}

void unpack_to(const Archive& archive, const std::string& root) {
  const fs::path base(root);
  fs::create_directories(base);
  for (const auto& entry : archive.entries()) {
    // Refuse path traversal out of the extraction root. An absolute path is
    // rejected outright (`base / "/etc/x"` REPLACES base, it doesn't nest),
    // as is any `..` component — checked per component so `a/../../b` can't
    // sneak past a prefix test after normalization.
    const fs::path rel(entry.path);
    if (entry.path.empty() || rel.is_absolute()) {
      throw Error("unpack_to: absolute or empty path in archive: " + entry.path);
    }
    for (const auto& part : rel) {
      if (part == "..") {
        throw Error("unpack_to: path escapes extraction root: " + entry.path);
      }
    }
    const fs::path target = base / rel;
    if (entry.is_directory) {
      fs::create_directories(target);
    } else {
      fs::create_directories(target.parent_path());
      std::ofstream out(target, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(entry.data.data()),
                static_cast<std::streamsize>(entry.data.size()));
    }
  }
}

int relocate_prefix(Archive& archive, const std::string& old_prefix,
                    const std::string& new_prefix) {
  if (old_prefix.empty()) throw Error("relocate_prefix: empty old prefix");
  int rewritten = 0;
  for (auto& entry : archive.entries()) {
    if (entry.is_directory || entry.data.empty() || !looks_text(entry.data)) continue;
    std::string text(entry.data.begin(), entry.data.end());
    bool changed = false;
    size_t pos = 0;
    while ((pos = text.find(old_prefix, pos)) != std::string::npos) {
      text.replace(pos, old_prefix.size(), new_prefix);
      pos += new_prefix.size();
      changed = true;
    }
    if (changed) {
      entry.data.assign(text.begin(), text.end());
      ++rewritten;
    }
  }
  return rewritten;
}

namespace {

// The environment-independent part of one package's pack output: its MANIFEST
// line block and that block's chunks. Only the dist-info entries, which embed
// the signature-derived prefix, are rendered per environment.
struct PackageBlock {
  std::vector<std::string> text_paths;  // relocatable entries (dist-info)
  Bytes lines;                          // "path size\n" per payload file
  std::vector<ChunkRef> line_chunks;
};

// Packed archives dedup on the pinned requirements list: it fully determines
// the synthesized file set, so two same-content environments with different
// names share one archive (and one canonical, relocatable prefix). Bounded:
// least-recently-packed signatures fall out past 64 entries, so a campaign
// cycling through thousands of environments holds at most 64 archives.
//
// Package blocks are memoized beside the archives, keyed by the pinned
// `name==version` plus the metadata the block is a function of, so sibling
// environments render and chunk a shared package once. Bounded at 256
// blocks; clear_pack_cache() empties both maps.
struct PackCache {
  std::mutex mu;
  LruCache<std::string, PackedEnvironment, ContentHash> cache{64};
  LruCache<std::string, std::shared_ptr<const PackageBlock>, ContentHash> blocks{256};
};

PackCache& pack_cache() {
  static PackCache* instance = new PackCache;
  return *instance;
}

struct PackMetrics {
  obs::Counter& requests;
  obs::Counter& cache_hits;
  obs::Counter& cold_packs;
  obs::Counter& chunks;
  obs::Counter& package_block_hits;
  obs::HistogramMetric& seconds;
  obs::HistogramMetric& archive_bytes;

  static PackMetrics& get() {
    static PackMetrics m{
        obs::Recorder::global().metrics().counter("pack.requests"),
        obs::Recorder::global().metrics().counter("pack.cache_hits"),
        obs::Recorder::global().metrics().counter("pack.cold_packs"),
        obs::Recorder::global().metrics().counter("pack.chunks"),
        obs::Recorder::global().metrics().counter("pack.package_block_hits"),
        obs::Recorder::global().metrics().histogram("pack.seconds"),
        obs::Recorder::global().metrics().histogram("pack.archive_bytes", 1.0, 1e12, 96),
    };
    return m;
  }
};

std::string prefix_for_signature(const std::string& signature) {
  return strformat("/master/envs/%016llx",
                   static_cast<unsigned long long>(hash64(signature)));
}

std::shared_ptr<const PackageBlock> render_package_block(const PackageMeta& meta) {
  auto block = std::make_shared<PackageBlock>();
  std::string size_field;  // " <size>\n"; every file of a package shares one size
  int64_t size_field_of = -1;
  Environment::for_each_package_file(
      meta, [&](std::string_view path, int64_t size, bool is_text) {
        if (is_text) {
          block->text_paths.emplace_back(path);
          return;
        }
        if (size != size_field_of) {
          size_field = " " + std::to_string(size) + "\n";
          size_field_of = size;
        }
        block->lines.insert(block->lines.end(), path.begin(), path.end());
        block->lines.insert(block->lines.end(), size_field.begin(), size_field.end());
      });
  block->lines.shrink_to_fit();  // the memo holds it; drop the growth slack
  block->line_chunks = chunk_bytes(block->lines.data(), block->lines.size());
  return block;
}

// The memoized block for `meta`, rendered on a miss outside the lock (two
// racing packs may both render it; the blocks are identical).
std::shared_ptr<const PackageBlock> package_block(const PackageMeta& meta) {
  std::string key = strformat("%s\x1f%d\x1f%lld\x1f%d", meta.spec_str().c_str(),
                              meta.file_count, static_cast<long long>(meta.size_bytes),
                              meta.has_native_libs ? 1 : 0);
  auto& pc = pack_cache();
  {
    std::lock_guard<std::mutex> lock(pc.mu);
    if (const auto* hit = pc.blocks.find(key)) {
      if (obs::Recorder::enabled()) PackMetrics::get().package_block_hits.add();
      return *hit;
    }
  }
  std::shared_ptr<const PackageBlock> block = render_package_block(meta);
  std::lock_guard<std::mutex> lock(pc.mu);
  pc.blocks.insert(std::move(key), block);
  return block;
}

// Per-package output of the parallel pipeline. Everything here is a pure
// function of (PackageMeta, prefix), so any thread may produce any job and
// the merge below only concatenates in the environment's sorted order.
struct PackageJob {
  std::shared_ptr<const PackageBlock> block;
  Bytes dist_entry;  // tar serialization of the dist-info text entries
  std::vector<ChunkRef> dist_chunks;
};

void pack_package(const PackageMeta& meta, const std::string& prefix, PackageJob& job) {
  job.block = package_block(meta);
  const std::string content = "prefix=" + prefix + "\n";
  for (const std::string& path : job.block->text_paths) {
    append_tar_header(job.dist_entry, path, /*is_directory=*/false, 0644, content.size());
    job.dist_entry.insert(job.dist_entry.end(), content.begin(), content.end());
    append_padding(job.dist_entry, content.size());
  }
  // Chunk boundaries are computed per logical segment, never across package
  // boundaries: a package's chunks are identical in every environment that
  // pins it, which is what makes warm delta transfers small.
  job.dist_chunks = chunk_bytes(job.dist_entry.data(), job.dist_entry.size());
}

PackedEnvironment pack_environment_cold(const Environment& env,
                                        const std::string& signature, int threads) {
  const std::string prefix = prefix_for_signature(signature);
  const auto& packages = env.packages();
  std::vector<PackageJob> jobs(packages.size());

  size_t workers = threads > 0 ? static_cast<size_t>(threads)
                               : std::max(1u, std::thread::hardware_concurrency());
  workers = std::min(workers, std::max<size_t>(jobs.size(), 1));
  if (workers <= 1) {
    for (size_t i = 0; i < packages.size(); ++i) {
      pack_package(*packages[i], prefix, jobs[i]);
    }
  } else {
    // Work-stealing by index (same shape as flow::analyze_all): each thread
    // claims the next package and writes into that package's own slot, so
    // the merged output never depends on scheduling.
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mu;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        while (!failed.load(std::memory_order_relaxed)) {
          const size_t i = next.fetch_add(1);
          if (i >= packages.size()) return;
          try {
            pack_package(*packages[i], prefix, jobs[i]);
          } catch (...) {
            {
              std::lock_guard<std::mutex> lock(error_mu);
              if (!error) error = std::current_exception();
            }
            failed.store(true, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& t : pool) t.join();
    if (error) std::rethrow_exception(error);
  }

  // Deterministic merge. The stream layout mirrors the serial writer exactly:
  // requirements.txt entry, per-package dist-info entries in sorted package
  // order, the MANIFEST entry (header, per-package line blocks, padding),
  // then the two-zero-block trailer.
  Bytes head;
  {
    ArchiveEntry e;
    e.path = "requirements.txt";
    e.data.assign(signature.begin(), signature.end());
    append_tar_entry(head, e);
  }
  size_t manifest_size = 0;
  for (const PackageJob& j : jobs) manifest_size += j.block->lines.size();
  Bytes mh;
  append_tar_header(mh, "MANIFEST", /*is_directory=*/false, 0644, manifest_size);
  Bytes tail;
  append_padding(tail, manifest_size);
  append_tar_trailer(tail);
  const std::vector<ChunkRef> head_chunks = chunk_bytes(head.data(), head.size());
  const std::vector<ChunkRef> mh_chunks = chunk_bytes(mh.data(), mh.size());
  const std::vector<ChunkRef> tail_chunks = chunk_bytes(tail.data(), tail.size());

  struct Segment {
    const Bytes* bytes;
    const std::vector<ChunkRef>* chunks;
  };
  std::vector<Segment> segments;
  segments.reserve(2 * jobs.size() + 3);
  segments.push_back({&head, &head_chunks});
  for (const PackageJob& j : jobs) segments.push_back({&j.dist_entry, &j.dist_chunks});
  segments.push_back({&mh, &mh_chunks});
  for (const PackageJob& j : jobs) {
    segments.push_back({&j.block->lines, &j.block->line_chunks});
  }
  segments.push_back({&tail, &tail_chunks});

  // The stream digest is one serial chain as long as the archive: a parallel
  // pack computes it from the segments on a helper thread while this thread
  // copies them into an archive allocated once at its final size.
  const auto digest_segments = [&segments] {
    Hash64Stream stream;
    for (const Segment& seg : segments) {
      stream.update(std::string_view(reinterpret_cast<const char*>(seg.bytes->data()),
                                     seg.bytes->size()));
    }
    return stream.digest();
  };
  std::future<uint64_t> digest;
  if (workers > 1) digest = std::async(std::launch::async, digest_segments);

  size_t tar_size = 0;
  for (const Segment& seg : segments) tar_size += seg.bytes->size();
  Bytes tar;
  tar.reserve(tar_size);
  ChunkManifest manifest;
  for (const Segment& seg : segments) {
    tar.insert(tar.end(), seg.bytes->begin(), seg.bytes->end());
    manifest.append(*seg.chunks);
  }
  manifest.set_stream_digest(digest.valid() ? digest.get() : digest_segments());

  PackedEnvironment packed;
  packed.tar = std::make_shared<const Bytes>(std::move(tar));
  packed.manifest = std::make_shared<const ChunkManifest>(std::move(manifest));

  // Register every chunk as a span into the immutable archive (no copies);
  // the store's shared_ptr keeps the archive alive past cache eviction.
  ChunkStore& store = global_chunk_store();
  size_t offset = 0;
  for (const ChunkRef& c : packed.manifest->chunks()) {
    store.put(c, packed.tar, offset);
    offset += c.size;
  }
  return packed;
}

}  // namespace

PackedEnvironment packed_environment(const Environment& env, int threads) {
  std::string signature = env.requirements_txt();
  auto& pc = pack_cache();
  const bool recording = obs::Recorder::enabled();
  if (recording) PackMetrics::get().requests.add();
  {
    std::lock_guard<std::mutex> lock(pc.mu);
    if (const auto* hit = pc.cache.find(signature)) {
      if (recording) PackMetrics::get().cache_hits.add();
      return *hit;
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  PackedEnvironment packed = pack_environment_cold(env, signature, threads);
  if (recording) {
    PackMetrics& m = PackMetrics::get();
    m.cold_packs.add();
    m.chunks.add(static_cast<int64_t>(packed.manifest->chunk_count()));
    m.seconds.observe(std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count());
    m.archive_bytes.observe(static_cast<double>(packed.tar->size()));
  }
  {
    std::lock_guard<std::mutex> lock(pc.mu);
    pc.cache.insert(std::move(signature), packed);
  }
  return packed;
}

std::shared_ptr<const Bytes> packed_environment_tar(const Environment& env) {
  return packed_environment(env).tar;
}

std::string packed_environment_prefix(const Environment& env) {
  return prefix_for_signature(env.requirements_txt());
}

CacheStats pack_cache_stats() {
  auto& pc = pack_cache();
  std::lock_guard<std::mutex> lock(pc.mu);
  return pc.cache.stats();
}

void clear_pack_cache() {
  auto& pc = pack_cache();
  std::lock_guard<std::mutex> lock(pc.mu);
  pc.cache.clear();
  pc.blocks.clear();
}

}  // namespace lfm::pkg
