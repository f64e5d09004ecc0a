// A resolved, materializable Python environment (paper §V.C–D).
//
// An `Environment` is the output of dependency analysis + solving: the exact
// package set a function needs. It can be rendered as a requirements list,
// synthesized into an in-memory file tree (for the packer), and carries the
// aggregate size/file statistics that drive the distribution cost models.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pkg/solver.h"

namespace lfm::pkg {

struct EnvironmentFile {
  std::string path;   // environment-relative, e.g. "lib/numpy/core.so"
  int64_t size = 0;
  bool is_text = false;  // text files participate in prefix relocation
};

class Environment {
 public:
  // Build from a solver resolution. `name` labels the environment.
  Environment(std::string name, const Resolution& resolution);

  const std::string& name() const { return name_; }
  const std::vector<const PackageMeta*>& packages() const { return packages_; }
  int64_t total_size() const { return total_size_; }
  int total_files() const { return total_files_; }
  size_t package_count() const { return packages_.size(); }
  bool has_native_libs() const;

  // requirements.txt-style pinned list, sorted by name.
  std::string requirements_txt() const;
  // conda environment.yml-style rendering.
  std::string conda_yaml() const;

  // Deterministically synthesize the environment's file list: per package,
  // `file_count` files partitioning `size_bytes`, with a few text files
  // (scripts, dist-info) that embed the build prefix for relocation tests.
  // Equals synthesize_package_files() concatenated over packages() in order.
  std::vector<EnvironmentFile> synthesize_files() const;

  // One package's synthesized files, appended to `out`: a copy of what
  // for_each_package_file() visits.
  static void synthesize_package_files(const PackageMeta& meta,
                                       std::vector<EnvironmentFile>& out);

  // The one naming scheme for a package's synthesized files: calls
  // `visit(std::string_view path, int64_t size, bool is_text)` once per file,
  // in order. `path` lives in a buffer reused across calls, valid only during
  // the call, so walking a package allocates nothing per file. A pure
  // function of the package metadata, so any thread may run any package —
  // the per-package unit of work of the parallel pack pipeline (packer.h).
  template <typename Visit>
  static void for_each_package_file(const PackageMeta& meta, Visit&& visit);

 private:
  std::string name_;
  std::vector<const PackageMeta*> packages_;  // sorted by name
  int64_t total_size_ = 0;
  int total_files_ = 0;
};

template <typename Visit>
void Environment::for_each_package_file(const PackageMeta& meta, Visit&& visit) {
  const int count = std::max(meta.file_count, 1);
  const int64_t per_file = std::max<int64_t>(meta.size_bytes / count, 1);
  std::string path = "lib/" + meta.name + "/";
  const size_t dir_len = path.size();
  // The first file of each package is a text entry (metadata/launcher) that
  // embeds the original prefix; the rest are payload.
  path += meta.name + ".dist-info";
  visit(std::string_view(path), per_file, true);
  for (int i = 1; i < count; ++i) {
    // lib/<name>/data_<i, zero-padded to 4 digits><.so|.py>
    char digits[16];
    const auto [end, ec] = std::to_chars(digits, digits + sizeof digits, i);
    const size_t n = static_cast<size_t>(end - digits);
    path.resize(dir_len);
    path += "data_";
    if (n < 4) path.append(4 - n, '0');
    path.append(digits, n);
    path += meta.has_native_libs && i % 7 == 0 ? ".so" : ".py";
    visit(std::string_view(path), per_file, false);
  }
}

}  // namespace lfm::pkg
