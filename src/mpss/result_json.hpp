#pragma once
// Wire codec of one SolveResult (S45, see DESIGN.md): an element of a
// protocol response's "results" array (net/protocol.hpp frames it).
//
//   {"status":"ok","error_detail":"","energy":42.5,
//    "schedule":{"type":"exact","machines":2,
//                "slices":[[0,"0","1/2","3",1],...]}}   // [m,start,end,speed,job]
//
// Exact slices travel as canonical Q strings and doubles at max_digits10, so
// a decoded result is bit-identical to the in-process one; "fast" schedules
// carry doubles, and "none" (the LP engine, a failed solve) has no slices.
// SolveStats telemetry stays with the process that solved.
//
// The codec sits beside the facade, below both layers that use it: the
// service's result cache stores a hit's encoded bytes (service/
// batch_solver.hpp) and the protocol splices them into responses. Neither
// direction builds a json::Value: the encoder appends bytes equal to
// serializing the document above, and the decoder pulls its tokens from a
// json::Cursor straight into the SolveResult.

#include <cstddef>
#include <string>

#include "mpss/solve.hpp"
#include "mpss/util/json.hpp"

namespace mpss {

/// A decoded schedule may name at most this many machines more than it has
/// slices. The decoder allocates one slot per machine, so an unchecked count
/// would let a few bytes ("machines":1e15) demand any allocation; a larger
/// count is a schema error. Engines leave machines idle only when there are
/// more machines than jobs, so real replies stay far below the bound.
inline constexpr std::size_t kMaxIdleMachines = std::size_t{1} << 16;

/// Appends the result's JSON element to `out`.
void append_result_json(const SolveResult& result, std::string& out);

/// Reads one result element. Members may come in any order; unknown members
/// are skipped, and of a repeated member the first counts. Throws
/// std::invalid_argument when the element does not fit the schema (and
/// json::SyntaxError when the text is not JSON); a zero denominator in a
/// slice is std::domain_error, as in Q::from_string.
[[nodiscard]] SolveResult read_result_json(json::Cursor& cursor);

}  // namespace mpss
