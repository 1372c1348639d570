// JSON codec for the advisor request/response pair (DESIGN.md §14).
//
// Wire conventions:
//   - Exact unit types travel as int64 fields with a unit suffix:
//     Money as `*_micros`, Duration as `*_ms`, DataSize as `*_bytes`,
//     Months as `*_milli_months`. Doubles are reserved for genuinely
//     real-valued knobs (alpha, drift rates, gap fractions) and must be
//     finite, so every monetary/temporal quantity round-trips
//     bit-exactly.
//   - An unsigned field (`seed`, `frequency`, `target`,
//     `max_candidates`) travels as a JSON integer, so its wire range is
//     [0, 2^63) (narrower where its type is).
//   - Requests are strict: unknown keys, wrong types, and out-of-range
//     values are InvalidArgument naming the offending field's path
//     ("request.timeline.drifts[0].amplitude") and the accepted values
//     — a typo'd knob must not silently fall back to a default.
//   - Every request-side struct declares its fields once, in one table
//     in advisor_codec.cc; the key check, the reads, the validators and
//     the encoder all come from it.
//   - Responses serialize the payload selected by the response kind
//     plus the shared `meta` block; WriteJson output is deterministic
//     (insertion-ordered members).

#pragma once

#include <string>
#include <string_view>

#include "core/advisor.h"
#include "core/scenario.h"
#include "serving/json.h"

namespace cloudview {

/// \brief Parses a request object (already-parsed JSON). The in-process
/// fast-path fields (inline_workload, cluster_override, objective's
/// cancel token) have no wire form and come back null.
Result<AdvisorRequest> ParseAdvisorRequest(const JsonValue& json);

/// \brief Convenience: ParseJson + ParseAdvisorRequest.
Result<AdvisorRequest> ParseAdvisorRequestText(std::string_view text);

/// \brief Serializes every wire field of a request, whatever its kind
/// (not the in-process fast-path fields). For any request `r` whose
/// values lie in their wire ranges (unsigned fields in [0, 2^63), finite
/// doubles, each field's bounds), ParseAdvisorRequest(
/// AdvisorRequestToJson(r)) equals `r` field for field, and encoding a
/// parsed request is a fixed point of the text.
JsonValue AdvisorRequestToJson(const AdvisorRequest& request);

/// \brief Serializes a response: `kind`, `meta`, and the kind's
/// payload member.
JsonValue AdvisorResponseToJson(const AdvisorResponse& response);

/// \brief Parses the subset of ScenarioConfig exposed on the wire (the
/// server's create_session op): schema / provider / instance
/// selection, storage billing, and candidate-generation knobs. Strict
/// like ParseAdvisorRequest; fields absent from the JSON keep the
/// ScenarioConfig defaults.
Result<ScenarioConfig> ParseScenarioConfig(const JsonValue& json);

/// \brief Serializes the wire fields of a config (the ones
/// ParseScenarioConfig reads), with the same round-trip guarantee as
/// AdvisorRequestToJson.
JsonValue ScenarioConfigToJson(const ScenarioConfig& config);

}  // namespace cloudview
