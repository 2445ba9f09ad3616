#pragma once
// Document-model reference of the protocol's result codec, for differential
// tests only (never linked into libmpss).
//
// This is the response decoder and result encoder as they stood before the
// one-pass codec (result_json.hpp, net/protocol.hpp): parse the whole frame
// into a json::Value, then walk the document -- plus the kMaxIdleMachines
// bound both decoders apply before allocating. The library's decode_response
// must agree with reference_decode_response on every input -- an equal
// Response, or the same ErrorCode -- and append_result_json must write the
// bytes json::serialize writes for reference_result_to_json_value.

#include <string_view>

#include "mpss/net/protocol.hpp"
#include "mpss/solve.hpp"
#include "mpss/util/json.hpp"

namespace mpss::net::reference {

[[nodiscard]] json::Value result_to_json_value(const SolveResult& result);
[[nodiscard]] SolveResult result_from_json_value(const json::Value& value);

/// Throws ProtocolError like net::decode_response.
[[nodiscard]] Response decode_response(std::string_view payload);

}  // namespace mpss::net::reference
