#include "pkg/environment.h"

#include <algorithm>

namespace lfm::pkg {

Environment::Environment(std::string name, const Resolution& resolution)
    : name_(std::move(name)) {
  packages_.reserve(resolution.packages.size());
  for (const auto& [_, meta] : resolution.packages) packages_.push_back(meta);
  std::sort(packages_.begin(), packages_.end(),
            [](const PackageMeta* a, const PackageMeta* b) { return a->name < b->name; });
  for (const PackageMeta* meta : packages_) {
    total_size_ += meta->size_bytes;
    total_files_ += meta->file_count;
  }
}

bool Environment::has_native_libs() const {
  return std::any_of(packages_.begin(), packages_.end(),
                     [](const PackageMeta* p) { return p->has_native_libs; });
}

std::string Environment::requirements_txt() const {
  std::string out;
  for (const PackageMeta* meta : packages_) {
    out += meta->name + "==" + meta->version.str() + "\n";
  }
  return out;
}

std::string Environment::conda_yaml() const {
  std::string out = "name: " + name_ + "\nchannels:\n  - defaults\ndependencies:\n";
  for (const PackageMeta* meta : packages_) {
    out += "  - " + meta->name + "=" + meta->version.str() + "\n";
  }
  return out;
}

std::vector<EnvironmentFile> Environment::synthesize_files() const {
  std::vector<EnvironmentFile> files;
  files.reserve(static_cast<size_t>(total_files_));
  for (const PackageMeta* meta : packages_) synthesize_package_files(*meta, files);
  return files;
}

void Environment::synthesize_package_files(const PackageMeta& meta,
                                           std::vector<EnvironmentFile>& out) {
  for_each_package_file(meta, [&out](std::string_view path, int64_t size, bool is_text) {
    out.push_back(EnvironmentFile{std::string(path), size, is_text});
  });
}

}  // namespace lfm::pkg
