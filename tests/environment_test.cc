// Unit tests for Environment construction and rendering.
#include <gtest/gtest.h>

#include "pkg/environment.h"
#include "pkg/index.h"

namespace lfm::pkg {
namespace {

Environment resolve_env(const std::string& name, const std::string& root) {
  static const PackageIndex& index = standard_index();
  Solver solver(index);
  auto result = solver.resolve({Requirement::parse(root)});
  EXPECT_TRUE(result.ok());
  return Environment(name, result.value());
}

TEST(Environment, AggregatesSizeAndFiles) {
  const Environment env = resolve_env("np", "numpy");
  EXPECT_GT(env.total_size(), 0);
  EXPECT_GT(env.total_files(), 0);
  EXPECT_GE(env.package_count(), 4u);  // numpy + python + blas stack
  int64_t sum = 0;
  for (const auto* p : env.packages()) sum += p->size_bytes;
  EXPECT_EQ(sum, env.total_size());
}

TEST(Environment, PackagesSortedByName) {
  const Environment env = resolve_env("np", "numpy");
  for (size_t i = 1; i < env.packages().size(); ++i) {
    EXPECT_LT(env.packages()[i - 1]->name, env.packages()[i]->name);
  }
}

TEST(Environment, RequirementsTxtPinned) {
  const Environment env = resolve_env("np", "numpy");
  const std::string reqs = env.requirements_txt();
  EXPECT_NE(reqs.find("numpy==1.19.2"), std::string::npos);
  EXPECT_NE(reqs.find("python==3.8.5"), std::string::npos);
  // One line per package.
  size_t lines = 0;
  for (const char c : reqs) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, env.package_count());
}

TEST(Environment, CondaYaml) {
  const Environment env = resolve_env("hep", "coffea");
  const std::string yaml = env.conda_yaml();
  EXPECT_NE(yaml.find("name: hep"), std::string::npos);
  EXPECT_NE(yaml.find("  - coffea=0.6.47"), std::string::npos);
}

TEST(Environment, HasNativeLibs) {
  EXPECT_TRUE(resolve_env("np", "numpy").has_native_libs());
  EXPECT_TRUE(resolve_env("tf", "tensorflow").has_native_libs());
}

TEST(Environment, SynthesizeFilesMatchesCounts) {
  const Environment env = resolve_env("np", "numpy");
  const auto files = env.synthesize_files();
  EXPECT_EQ(static_cast<int>(files.size()), env.total_files());
  // One text (relocatable) entry per package.
  int text_files = 0;
  int64_t bytes = 0;
  for (const auto& f : files) {
    if (f.is_text) ++text_files;
    bytes += f.size;
    EXPECT_FALSE(f.path.empty());
    EXPECT_GT(f.size, 0);
  }
  EXPECT_EQ(text_files, static_cast<int>(env.package_count()));
  // Sizes are per-file-rounded, so total is within one file size per package.
  EXPECT_NEAR(static_cast<double>(bytes), static_cast<double>(env.total_size()),
              static_cast<double>(env.total_files()));
}

TEST(Environment, SynthesizedPathsUnique) {
  const Environment env = resolve_env("np", "numpy");
  const auto files = env.synthesize_files();
  std::set<std::string> paths;
  for (const auto& f : files) paths.insert(f.path);
  EXPECT_EQ(paths.size(), files.size());
}

TEST(Environment, PackageFileNamingScheme) {
  PackageMeta meta;
  meta.name = "ext";
  meta.size_bytes = 100000;
  meta.file_count = 10001;
  meta.has_native_libs = true;
  std::vector<EnvironmentFile> files;
  Environment::synthesize_package_files(meta, files);
  ASSERT_EQ(files.size(), 10001u);
  EXPECT_EQ(files[0].path, "lib/ext/ext.dist-info");
  EXPECT_TRUE(files[0].is_text);
  EXPECT_EQ(files[1].path, "lib/ext/data_0001.py");
  EXPECT_EQ(files[7].path, "lib/ext/data_0007.so");
  EXPECT_EQ(files[9999].path, "lib/ext/data_9999.py");
  EXPECT_EQ(files[10000].path, "lib/ext/data_10000.py");
  for (const auto& f : files) EXPECT_EQ(f.size, 9);  // 100000 / 10001

  // Without native libs every payload file is .py; a package declaring no
  // files still gets its dist-info entry.
  meta.has_native_libs = false;
  meta.file_count = 0;
  files.clear();
  Environment::synthesize_package_files(meta, files);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].path, "lib/ext/ext.dist-info");
  EXPECT_EQ(files[0].size, 100000);
}

}  // namespace
}  // namespace lfm::pkg
