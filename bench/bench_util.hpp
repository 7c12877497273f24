// Shared helpers for the experiment benchmarks: formatting of outcome sets
// and a uniform "[exp-id] ..." verdict line so bench output doubles as the
// reproduction record collected into bench_output.txt / EXPERIMENTS.md.

#pragma once

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "explore/explorer.hpp"
#include "litmus/litmus.hpp"

namespace rc11::bench {

/// Machine-readable companion to the verdict lines: bench mains accumulate
/// one entry per case and, when the user passed `--json <path>`, write a
/// single JSON document CI can diff against a checked-in baseline
/// (tools/check_bench_regression.py).  The flag is extracted from argv
/// *before* benchmark::Initialize so Google Benchmark never sees it.
class JsonReport {
 public:
  /// Consumes `--json <path>` / `--json=<path>` from argv, shrinking argc.
  void parse_args(int& argc, char** argv) {
    int out = 1;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        path_ = argv[++i];
      } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
        path_ = argv[i] + 7;
      } else {
        argv[out++] = argv[i];
      }
    }
    argc = out;
  }

  [[nodiscard]] bool enabled() const { return !path_.empty(); }

  /// Records one case as a flat name -> number map (JSON needs no nesting
  /// for the regression check, and flat keys keep the python side trivial).
  void add(std::string name,
           std::vector<std::pair<std::string, double>> fields) {
    cases_.push_back({std::move(name), std::move(fields)});
  }

  /// Writes the document; silently a no-op without --json.  Returns false on
  /// I/O failure so mains can exit nonzero (CI treats a missing file as a
  /// hard failure either way).
  bool write(const std::string& benchmark_name) const {
    if (!enabled()) return true;
    std::ofstream os(path_);
    if (!os) {
      std::cerr << "error: cannot open --json path " << path_ << "\n";
      return false;
    }
    os.precision(12);
    os << "{\n  \"benchmark\": \"" << benchmark_name << "\",\n  \"cases\": [";
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      os << (i ? "," : "") << "\n    {\"name\": \"" << cases_[i].name << "\"";
      for (const auto& [key, value] : cases_[i].fields) {
        os << ", \"" << key << "\": " << value;
      }
      os << "}";
    }
    os << "\n  ]\n}\n";
    return static_cast<bool>(os);
  }

 private:
  struct Case {
    std::string name;
    std::vector<std::pair<std::string, double>> fields;
  };
  std::string path_;
  std::vector<Case> cases_;
};

inline std::string outcomes_to_string(
    const std::vector<std::vector<lang::Value>>& outcomes) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    os << (i ? " " : "") << "(";
    for (std::size_t j = 0; j < outcomes[i].size(); ++j) {
      os << (j ? "," : "") << outcomes[i][j];
    }
    os << ")";
  }
  os << "}";
  return os.str();
}

inline void verdict(const std::string& exp, bool ok, const std::string& detail) {
  std::cout << "[" << exp << "] " << (ok ? "REPRODUCED" : "MISMATCH") << " — "
            << detail << "\n";
}

/// Explores a litmus test and prints whether the reachable outcome set
/// matches the RC11 RAR prediction; returns the explore result for counters.
inline explore::ExploreResult run_litmus(const std::string& exp,
                                         litmus::LitmusTest& test) {
  auto result = explore::explore(test.sys);
  const auto outcomes =
      explore::final_register_values(test.sys, result, test.observed);
  verdict(exp, outcomes == test.allowed,
          test.name + ": outcomes " + outcomes_to_string(outcomes) +
              " expected " + outcomes_to_string(test.allowed));
  return result;
}

/// Best-of-3 wall-clock seconds of one explore(sys, opts), leaving the last
/// run's result in `result`.  Each sample times enough back-to-back runs to
/// span at least 2 ms (the batch doubles until it does, which also warms
/// caches), so a case of a few dozen states is timed over thousands of runs
/// rather than within timer and scheduling noise.
inline double timed_explore(const lang::System& sys,
                            const explore::ExploreOptions& opts,
                            explore::ExploreResult& result) {
  using Clock = std::chrono::steady_clock;
  constexpr double kMinSampleS = 2e-3;
  const auto batch_s = [&](int runs) {
    const auto t0 = Clock::now();
    for (int i = 0; i < runs; ++i) result = explore::explore(sys, opts);
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  int runs = 1;
  while (batch_s(runs) < kMinSampleS) runs *= 2;
  double best_s = 1e9;
  for (int i = 0; i < 3; ++i) best_s = std::min(best_s, batch_s(runs) / runs);
  return best_s;
}

}  // namespace rc11::bench
