#pragma once

// Shared plumbing for the paper-reproduction bench binaries. Every binary
// prints the same rows/series the corresponding paper table or figure
// reports, on the simulated workloads documented in DESIGN.md §3.
//
// Environment knobs:
//   HUMO_TRIALS  — randomized trials per cell for SAMP/HYBR (default 20;
//                  the paper averaged 100).
//   HUMO_SEED    — base seed (default 1000).

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "humo.h"

namespace humo::bench {

inline size_t Trials() {
  return static_cast<size_t>(GetEnvInt64("HUMO_TRIALS", 20));
}

inline uint64_t BaseSeed() {
  return static_cast<uint64_t>(GetEnvInt64("HUMO_SEED", 1000));
}

/// Optimizer factories wired the way §VIII runs them.
inline eval::OptimizerFn MakeBase() {
  return [](const core::SubsetPartition& p, const core::QualityRequirement& r,
            core::Oracle* o) {
    return core::BaselineOptimizer().Optimize(p, r, o);
  };
}

inline eval::OptimizerFn MakeSamp(uint64_t seed) {
  return [seed](const core::SubsetPartition& p,
                const core::QualityRequirement& r, core::Oracle* o) {
    core::PartialSamplingOptions opts;
    opts.seed = seed;
    return core::PartialSamplingOptimizer(opts).Optimize(p, r, o);
  };
}

inline eval::OptimizerFn MakeHybr(uint64_t seed) {
  return [seed](const core::SubsetPartition& p,
                const core::QualityRequirement& r, core::Oracle* o) {
    core::HybridOptions opts;
    opts.sampling.seed = seed;
    return core::HybridOptimizer(opts).Optimize(p, r, o);
  };
}

inline eval::ExperimentSummary RunBase(const core::SubsetPartition& p,
                                       const core::QualityRequirement& req) {
  // BASE is deterministic; a single trial suffices.
  return eval::RunExperiment(
      p, req, [](uint64_t) { return MakeBase(); }, 1, BaseSeed());
}

inline eval::ExperimentSummary RunSamp(const core::SubsetPartition& p,
                                       const core::QualityRequirement& req) {
  return eval::RunExperiment(
      p, req, [](uint64_t seed) { return MakeSamp(seed); }, Trials(),
      BaseSeed());
}

inline eval::ExperimentSummary RunHybr(const core::SubsetPartition& p,
                                       const core::QualityRequirement& req) {
  return eval::RunExperiment(
      p, req, [](uint64_t seed) { return MakeHybr(seed); }, Trials(),
      BaseSeed());
}

inline void PrintHeader(const std::string& title, const std::string& paper) {
  std::printf("============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper.c_str());
  std::printf("============================================================\n\n");
}

/// One named field of a bench contract file, its value already rendered as
/// JSON: integers exactly, bools as true/false, strings quoted (plain ASCII,
/// nothing to escape), doubles through a printf format, a field list as an
/// inline object, nullptr as null.
struct JsonField {
  // Any integer type; bool takes the non-template overload below.
  template <typename T, typename = std::enable_if_t<std::is_integral_v<T>>>
  JsonField(std::string n, T v)
      : name(std::move(n)), json(std::to_string(v)) {}
  JsonField(std::string n, bool v)
      : name(std::move(n)), json(v ? "true" : "false") {}
  JsonField(std::string n, double v, const char* format = "%.3f")
      : name(std::move(n)) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, v);
    json = buf;
  }
  JsonField(std::string n, const std::string& v)
      : name(std::move(n)), json("\"" + v + "\"") {}
  JsonField(std::string n, const char* v)
      : JsonField(std::move(n), std::string(v)) {}
  JsonField(std::string n, std::nullptr_t) : name(std::move(n)), json("null") {}
  JsonField(std::string n, const std::vector<JsonField>& object)
      : name(std::move(n)), json(JsonObject(object)) {}

  static std::string JsonObject(const std::vector<JsonField>& fields) {
    std::string out = "{";
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields[i].name + "\": " + fields[i].json;
    }
    return out + "}";
  }

  std::string name;
  std::string json;
};
using JsonFields = std::vector<JsonField>;

/// Writes the bench's contract file BENCH_<stem>.json in the working
/// directory: the `head` fields one per line, then "results" with one row
/// object per line, then the `tail` fields. Returns false, after saying so
/// on stderr, when the file cannot be opened.
inline bool WriteBenchJson(const std::string& stem, const JsonFields& head,
                           const std::vector<JsonFields>& rows,
                           const JsonFields& tail = {}) {
  const std::string path = "BENCH_" + stem + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << "{\n";
  for (const JsonField& f : head) {
    out << "  \"" << f.name << "\": " << f.json << ",\n";
  }
  out << "  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    out << "    " << JsonField::JsonObject(rows[i])
        << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "  ]";
  for (const JsonField& f : tail) {
    out << ",\n  \"" << f.name << "\": " << f.json;
  }
  out << "\n}\n";
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

}  // namespace humo::bench
