// Shared helpers for the benchmark harnesses, including the
// machine-readable result format the perf trajectory scrapes: one JSON
// object per line on stdout, prefixed "BENCH_JSON ", e.g.
//
//   BENCH_JSON {"bench":"solvers","name":"MV1/10q/greedy","wall_ms":1.2}
//
// Emit rows with JsonLine, which writes through the serving layer's
// JSON writer (serving/json.h): strings are fully escaped, numbers
// print as shortest round-trip JSON numbers (NaN/inf become null).

#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/duration.h"
#include "common/money.h"
#include "common/result.h"
#include "common/str_format.h"
#include "serving/json.h"

namespace cloudview {
namespace bench {

/// \brief True when the harness runs under `--smoke`: every bench
/// collapses to tiny iteration counts so CI can execute the full binary
/// set per push and catch bench bit-rot, without measuring anything.
inline bool& SmokeMode() {
  static bool smoke = false;
  return smoke;
}

/// \brief Strips `--smoke` from argv (updating argc) and latches
/// SmokeMode(). Call first in every bench main; remaining args can go
/// to benchmark::Initialize untouched.
inline void ParseSmoke(int& argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") {
      SmokeMode() = true;
      continue;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;
}

/// \brief The --smoke measuring budget: CLOUDVIEW_SMOKE_BUDGET_MS when
/// set to a positive number, else 25 ms. The override exists for
/// instrumented builds (the CI coverage job's --coverage binaries run
/// several times slower), which shrink the budget instead of skewing
/// the regression gate's throughput rows.
inline double SmokeBudgetMs() {
  static const double budget = [] {
    constexpr double kDefaultMs = 25.0;
    const char* env = std::getenv("CLOUDVIEW_SMOKE_BUDGET_MS");
    if (env == nullptr || *env == '\0') return kDefaultMs;
    char* end = nullptr;
    double parsed = std::strtod(env, &end);
    return (end != env && parsed > 0.0) ? parsed : kDefaultMs;
  }();
  return budget;
}

/// \brief Wall-clock budget for repeat-until-stable measurement loops.
/// Under --smoke the budget is capped at a few milliseconds rather than
/// zeroed: a single cold iteration swings severalfold run-to-run, and
/// the BENCH_JSON throughput rows feed the CI regression gate
/// (bench/check_regression.py), which needs smoke numbers that are
/// merely rough, not random.
inline double MeasureBudgetMs(double full_ms) {
  return SmokeMode() ? std::min(full_ms, SmokeBudgetMs()) : full_ms;
}

/// \brief benchmark::Initialize + RunSpecifiedBenchmarks, honouring
/// SmokeMode(): under --smoke every registered microbenchmark runs a
/// minimal measurement (min_time 1 ms) — enough to catch bit-rot,
/// cheap enough to run on every CI push.
inline void RunMicrobenchmarks(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  static char min_time[] = "--benchmark_min_time=0.001";
  if (SmokeMode()) args.push_back(min_time);
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  benchmark::RunSpecifiedBenchmarks();
}

/// \brief "25.4%" or "n/a" for NaN.
inline std::string Pct(double ratio) {
  if (std::isnan(ratio)) return "n/a";
  return FormatPercent(ratio, 1);
}

/// \brief "0.57 h" style fixed-decimals hours.
inline std::string Hours(Duration d) {
  return StrFormat("%.2f h", d.hours());
}

/// \brief Aborts the bench with a message when a Result failed.
template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return result.MoveValue();
}

/// \brief One machine-readable result row (see the header comment).
class JsonLine {
 public:
  /// \brief `bench` names the harness, e.g. "solvers".
  explicit JsonLine(const std::string& bench) : row_(JsonValue::Object()) {
    row_.Set("bench", JsonValue::Str(bench));
  }

  JsonLine& Str(const char* key, const std::string& value) {
    row_.Set(key, JsonValue::Str(value));
    return *this;
  }

  JsonLine& Num(const char* key, double value) {
    row_.Set(key, JsonValue::Double(value));
    return *this;
  }

  JsonLine& Int(const char* key, int64_t value) {
    row_.Set(key, JsonValue::Int(value));
    return *this;
  }

  /// \brief Prints "BENCH_JSON {...}" on its own stdout line.
  void Emit(std::ostream& os = std::cout) const {
    os << "BENCH_JSON " << WriteJson(row_) << "\n";
  }

 private:
  JsonValue row_;
};

}  // namespace bench
}  // namespace cloudview

