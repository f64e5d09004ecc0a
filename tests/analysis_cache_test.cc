// Tests for the content-addressed analysis caches: the hash utilities, the
// shared parse cache, the plan/solver memos, packer output dedup, bulk
// analyze_all determinism, and invalidation on index mutation.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "flow/analysis.h"
#include "flow/plan.h"
#include "flow/pyapp.h"
#include "pkg/environment.h"
#include "pkg/index.h"
#include "pkg/packer.h"
#include "pkg/solver.h"
#include "pysrc/lexer.h"
#include "pysrc/parse_cache.h"
#include "util/hash.h"

namespace lfm {
namespace {

const pkg::PackageIndex& index() { return pkg::standard_index(); }

std::string plan_fingerprint(const flow::DependencyPlan& plan) {
  std::ostringstream out;
  for (const auto& name : plan.import_names) out << name << ';';
  out << '|';
  for (const auto& req : plan.requirements) out << req.str() << ';';
  out << '|';
  for (const auto& d : plan.diagnostics) out << d.message << ';';
  return out.str();
}

std::string numbered_source(int i) {
  return "def task" + std::to_string(i) + "(x):\n    import numpy\n    return x + " +
         std::to_string(i) + "\n";
}

TEST(Hash64, DistinctInputsDistinctHashes) {
  std::set<uint64_t> seen;
  std::vector<std::string> inputs;
  for (int i = 0; i < 2000; ++i) inputs.push_back("input-" + std::to_string(i));
  inputs.push_back("");
  inputs.push_back(std::string(1, '\0'));
  inputs.push_back(std::string(2, '\0'));
  inputs.push_back(std::string(1000, 'a'));
  inputs.push_back(std::string(1001, 'a'));
  for (const auto& s : inputs) seen.insert(hash64(s));
  EXPECT_EQ(seen.size(), inputs.size()) << "hash64 collided on a small sample";
}

TEST(Hash64, StableAndSeedSensitive) {
  EXPECT_EQ(hash64("def f(): pass"), hash64("def f(): pass"));
  EXPECT_NE(hash64("x", 1), hash64("x", 2));
  EXPECT_NE(hash_combine64(1, 2), hash_combine64(2, 1));
}

TEST(Hash64, StreamInPiecesEqualsWholeHash) {
  std::string data;
  for (int i = 0; i < 100; ++i) data += static_cast<char>(i * 37);
  for (const uint64_t seed : {uint64_t{0}, uint64_t{7}}) {
    const uint64_t whole = hash64(data, seed);
    // Every two-cut split, so pieces start and end at each lane offset.
    for (size_t a = 0; a <= 20; ++a) {
      for (size_t b = a; b <= 40; ++b) {
        Hash64Stream stream(seed);
        stream.update(std::string_view(data).substr(0, a));
        stream.update(std::string_view());  // empty, null data
        stream.update(std::string_view(data).substr(a, b - a));
        stream.update(std::string_view(data).substr(b));
        EXPECT_EQ(stream.digest(), whole) << a << "," << b;
      }
    }
  }
  EXPECT_EQ(Hash64Stream().digest(), hash64(""));
}

TEST(ParseCache, RepeatParseIsAHitOnSharedAst) {
  pysrc::clear_parse_cache();
  const std::string src = "def f():\n    return 41\n";
  const auto first = pysrc::parse_module_shared(src);
  const auto second = pysrc::parse_module_shared(src);
  EXPECT_EQ(first.get(), second.get()) << "hit must share one immutable AST";
  const auto stats = pysrc::parse_cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ParseCache, EvictsLeastRecentlyUsedAtCapacity) {
  pysrc::clear_parse_cache();
  pysrc::set_parse_cache_capacity(2);
  const auto kept = pysrc::parse_module_shared(numbered_source(0));
  pysrc::parse_module_shared(numbered_source(1));
  pysrc::parse_module_shared(numbered_source(0));  // bump 0's recency
  pysrc::parse_module_shared(numbered_source(2));  // evicts 1
  EXPECT_EQ(pysrc::parse_cache_stats().evictions, 1);
  // 0 survived (hit); 1 must re-parse (miss).
  EXPECT_EQ(pysrc::parse_module_shared(numbered_source(0)).get(), kept.get());
  pysrc::parse_module_shared(numbered_source(1));
  const auto stats = pysrc::parse_cache_stats();
  EXPECT_EQ(stats.misses, 4);  // 0, 1, 2, then 1 again
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.capacity, 2u);
  pysrc::set_parse_cache_capacity(1024);
  EXPECT_EQ(pysrc::parse_cache_stats().capacity, 1024u);
}

TEST(ParseCache, SyntaxErrorsAreNeverCached) {
  pysrc::clear_parse_cache();
  EXPECT_THROW(pysrc::parse_module_shared("def broken(:\n"), pysrc::SyntaxError);
  EXPECT_THROW(pysrc::parse_module_shared("def broken(:\n"), pysrc::SyntaxError);
  EXPECT_EQ(pysrc::parse_cache_stats().entries, 0u);
}

TEST(PlanCache, CachedPlanMatchesUncachedAndCountsHits) {
  flow::clear_plan_cache();
  const std::string src =
      "def work(x):\n    import pandas\n    import sklearn\n    return x\n";
  const auto cold = flow::plan_function_dependencies_uncached(src, "work", index());
  const auto first = flow::plan_function_dependencies(src, "work", index());
  const auto second = flow::plan_function_dependencies(src, "work", index());
  EXPECT_EQ(plan_fingerprint(first), plan_fingerprint(cold));
  EXPECT_EQ(plan_fingerprint(second), plan_fingerprint(cold));
  const auto stats = flow::plan_cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
}

TEST(PlanCache, FunctionAndModulePlansDoNotAlias) {
  flow::clear_plan_cache();
  const std::string src =
      "import scipy\n\ndef f(x):\n    import numpy\n    return x\n";
  const auto fn_plan = flow::plan_function_dependencies(src, "f", index());
  const auto mod_plan = flow::plan_module_dependencies(src, index());
  EXPECT_EQ(fn_plan.import_names, (std::set<std::string>{"numpy"}));
  EXPECT_EQ(mod_plan.import_names, (std::set<std::string>{"scipy", "numpy"}));
  EXPECT_EQ(flow::plan_cache_stats().misses, 2);
}

TEST(PlanCache, MissWarmsSharedParseCache) {
  flow::clear_plan_cache();
  pysrc::clear_parse_cache();
  const std::string src = "def g(x):\n    import numpy\n    return x\n";
  flow::plan_function_dependencies(src, "g", index());
  EXPECT_EQ(pysrc::parse_cache_stats().misses, 1);
  // The same source through the parse cache is now free.
  pysrc::parse_module_shared(src);
  EXPECT_EQ(pysrc::parse_cache_stats().misses, 1);
  EXPECT_EQ(pysrc::parse_cache_stats().hits, 1);
}

TEST(SolverCache, RepeatResolveHitsRegardlessOfRootOrder) {
  pkg::clear_solver_cache();
  const pkg::Solver solver(index());
  const std::vector<pkg::Requirement> ab = {pkg::Requirement::parse("numpy"),
                                            pkg::Requirement::parse("scipy")};
  const std::vector<pkg::Requirement> ba = {pkg::Requirement::parse("scipy"),
                                            pkg::Requirement::parse("numpy")};
  const auto first = solver.resolve(ab);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(solver.last_steps(), 0);
  const auto second = solver.resolve(ba);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(solver.last_steps(), 0) << "hit must skip the search entirely";
  const auto stats = pkg::solver_cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  // Same chosen packages either way.
  ASSERT_EQ(first.value().packages.size(), second.value().packages.size());
  for (const auto& [name, meta] : first.value().packages) {
    ASSERT_TRUE(second.value().packages.count(name));
    EXPECT_EQ(second.value().packages.at(name)->spec_str(), meta->spec_str());
  }
  const auto cold = solver.resolve_uncached(ab);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.value().packages.size(), first.value().packages.size());
}

TEST(SolverCache, FailuresAreCachedToo) {
  pkg::clear_solver_cache();
  const pkg::Solver solver(index());
  const std::vector<pkg::Requirement> bad = {
      pkg::Requirement::parse("numpy>=99.0")};
  EXPECT_FALSE(solver.resolve(bad).ok());
  EXPECT_FALSE(solver.resolve(bad).ok());
  EXPECT_EQ(pkg::solver_cache_stats().hits, 1);
}

TEST(IndexGeneration, MutationAndCopiesRefreshTheStamp) {
  pkg::PackageIndex idx = pkg::make_standard_index();
  const uint64_t g0 = idx.generation();
  pkg::PackageMeta meta;
  meta.name = "freshpkg";
  meta.version = pkg::Version::parse("1.0");
  idx.add(meta);
  const uint64_t g1 = idx.generation();
  EXPECT_NE(g0, g1);
  const pkg::PackageIndex copy = idx;
  EXPECT_NE(copy.generation(), g1);
  EXPECT_NE(copy.generation(), pkg::make_standard_index().generation());
  EXPECT_EQ(index().generation(), index().generation());
}

TEST(IndexGeneration, PlanAndResolutionCachesInvalidateOnAdd) {
  flow::clear_plan_cache();
  pkg::clear_solver_cache();
  pkg::PackageIndex idx = pkg::make_standard_index();
  const std::string src = "def f(x):\n    import brandnew\n    return x\n";

  const auto before = flow::plan_function_dependencies(src, "f", idx);
  bool warned = false;
  for (const auto& d : before.diagnostics) {
    if (d.message.find("brandnew") != std::string::npos) warned = true;
  }
  EXPECT_TRUE(warned) << "unknown package must warn before it is published";

  pkg::PackageMeta meta;
  meta.name = "brandnew";
  meta.version = pkg::Version::parse("3.1");
  idx.add(meta);

  // Same source, same function — but the generation moved, so the cache may
  // not serve the stale plan.
  const auto after = flow::plan_function_dependencies(src, "f", idx);
  bool pinned = false;
  for (const auto& req : after.requirements) {
    if (req.str() == "brandnew==3.1") pinned = true;
  }
  EXPECT_TRUE(pinned);

  const pkg::Solver solver(idx);
  const auto resolved = solver.resolve({pkg::Requirement::parse("brandnew")});
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved.value().packages.at("brandnew")->spec_str(), "brandnew==3.1");
}

TEST(PackCache, SameRequirementsShareOneArchive) {
  pkg::clear_pack_cache();
  const pkg::Solver solver(index());
  const auto resolution = solver.resolve({pkg::Requirement::parse("numpy")});
  ASSERT_TRUE(resolution.ok());
  const pkg::Environment env_a("env-a", resolution.value());
  const pkg::Environment env_b("env-b", resolution.value());
  const auto tar_a = pkg::packed_environment_tar(env_a);
  const auto tar_b = pkg::packed_environment_tar(env_b);
  EXPECT_EQ(tar_a.get(), tar_b.get())
      << "environments with one package signature must share one archive";
  const auto stats = pkg::pack_cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);

  // The archive is a real tar carrying the pinned requirements and the
  // relocatable prefix.
  const pkg::Archive archive = pkg::read_tar(*tar_a);
  const auto* reqs = archive.find("requirements.txt");
  ASSERT_NE(reqs, nullptr);
  const std::string reqs_text(reqs->data.begin(), reqs->data.end());
  EXPECT_NE(reqs_text.find("numpy=="), std::string::npos);
  bool prefix_found = false;
  const std::string prefix = pkg::packed_environment_prefix(env_a);
  for (const auto& entry : archive.entries()) {
    const std::string text(entry.data.begin(), entry.data.end());
    if (text.find(prefix) != std::string::npos) prefix_found = true;
  }
  EXPECT_TRUE(prefix_found);

  // A different package set gets a different archive.
  const auto other = solver.resolve({pkg::Requirement::parse("scipy")});
  ASSERT_TRUE(other.ok());
  const auto tar_c = pkg::packed_environment_tar(pkg::Environment("env-c", other.value()));
  EXPECT_NE(tar_c.get(), tar_a.get());
}

TEST(AnalyzeAll, DeterministicAcrossThreadCounts) {
  std::vector<flow::AnalysisRequest> requests;
  const char* imports[] = {"numpy", "scipy", "pandas", "sklearn", "matplotlib"};
  for (int i = 0; i < 200; ++i) {
    std::string src = "def job" + std::to_string(i % 7) + "(x):\n";
    src += "    import " + std::string(imports[i % 5]) + "\n";
    src += "    return x\n";
    requests.push_back({std::move(src), "job" + std::to_string(i % 7)});
  }
  requests.push_back({"import tensorflow\nRATE = 3\n", ""});  // module plan

  std::vector<std::string> baseline;
  for (const auto& plans : {flow::analyze_all(requests, index(), 1),
                            flow::analyze_all(requests, index(), 3),
                            flow::analyze_all(requests, index(), 16),
                            flow::analyze_all(requests, index(), 0)}) {
    ASSERT_EQ(plans.size(), requests.size());
    std::vector<std::string> prints;
    prints.reserve(plans.size());
    for (const auto& plan : plans) prints.push_back(plan_fingerprint(plan));
    if (baseline.empty()) {
      baseline = prints;
    } else {
      EXPECT_EQ(prints, baseline) << "results must not depend on thread count";
    }
  }
}

TEST(AnalyzeAll, ConcurrentDistinctSourcesParseOncePerSource) {
  flow::clear_plan_cache();
  pysrc::clear_parse_cache();
  std::vector<flow::AnalysisRequest> requests;
  constexpr int kDistinct = 12;
  for (int i = 0; i < 600; ++i) {
    requests.push_back({numbered_source(i % kDistinct),
                        "task" + std::to_string(i % kDistinct)});
  }
  const auto plans = flow::analyze_all(requests, index(), 8);
  ASSERT_EQ(plans.size(), requests.size());
  // Racing workers may double-parse a source at most once in a blue moon;
  // the cache guarantees each distinct source costs O(1) parses, not O(N).
  EXPECT_LE(pysrc::parse_cache_stats().misses, 2 * kDistinct);
  EXPECT_GE(pysrc::parse_cache_stats().misses, kDistinct);
}

TEST(PythonApp, RepeatInvocationsDoNotReparse) {
  const std::string src =
      "@python_app\ndef add(a, b):\n    return a + b\n";
  flow::App app = flow::python_app(src, "add");
  pysrc::clear_parse_cache();  // construction parsing is done; count from here
  const auto before = pysrc::parse_cache_stats().misses;
  for (int i = 0; i < 50; ++i) {
    const serde::Value args(serde::ValueList{serde::Value(i), serde::Value(2 * i)});
    const serde::Value result = app.fn(args);
    EXPECT_EQ(result.as_int(), 3 * i);
  }
  EXPECT_EQ(pysrc::parse_cache_stats().misses, before)
      << "invocations must reuse the shared AST, not re-parse the body";
}

}  // namespace
}  // namespace lfm
