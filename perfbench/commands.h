// Subcommands of perfbench_replay defined outside replay.cc.

#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// \brief Reads the non-empty lines of `path`; false (with a message on
/// stderr) when the file cannot be read.
bool ReadLines(const std::string& path, std::vector<std::string>* lines);

/// \brief `check`: re-evaluates every selection in `replies_path` (one
/// reply per line of `lines_path`) from scratch and compares its
/// CostBreakdown. Prints a JSON summary; returns 1 on any mismatch.
int RunCheck(const std::string& lines_path, const std::string& replies_path);

/// \brief `calibrate`: prints {"effective_cores": x}, the speedup the
/// global pool gives a fixed CPU-bound loop through ParallelFor.
int RunCalibrate();

}  // namespace perfbench
