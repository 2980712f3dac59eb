// Synchronous client for the query service.
//
// Wraps any Connection (loopback or TCP) with encode/roundtrip/decode and
// transparent batching: query() splits oversized batches into kMaxBatch
// frames and stitches the responses back together. Server-side error
// frames (a malformed frame, an overload shed) surface as
// std::runtime_error; a date the server cannot serve is an answer with
// status kUnavailable, not an error.
#pragma once

#include <string_view>
#include <vector>

#include "svc/protocol.hpp"
#include "svc/transport.hpp"

namespace droplens::svc {

class Client {
 public:
  explicit Client(Connection& connection) : connection_(connection) {}

  /// Answer one prefix. Throws std::runtime_error on transport failure or a
  /// server error frame.
  Answer lookup(net::Date date, const net::Prefix& prefix,
                uint8_t fields = kAllFields);

  /// Answer a batch, splitting into kMaxBatch-sized frames as needed.
  /// answers[i] corresponds to queries[i]; snapshot_version/date/degraded
  /// come from the last frame (a reload mid-batch shows up as answers with
  /// differing per-frame versions — re-query if that matters).
  QueryResponse query(const std::vector<Query>& queries);

  /// Status of one prefix across every day in [begin, end] (inclusive), in
  /// one server-side pass — run-length-encoded on transitions, so a stable
  /// prefix costs one run however long the window. Days the server cannot
  /// serve come back as runs whose status is kUnavailable.
  RangeResponse range(net::Date begin, net::Date end,
                      const net::Prefix& prefix, uint8_t fields = kAllFields);

  /// Round-trip one live-follow subscribe: sends `payload` (encoded by
  /// stream::encode_subscribe) as a kSubscribeRequest and returns the raw
  /// kDeltaResponse payload for stream::decode_delta. Raw bytes in, raw
  /// bytes out, so svc stays independent of the streaming layer —
  /// stream::Subscriber is the typed wrapper.
  std::string subscribe_raw(std::string_view payload);

 private:
  /// Roundtrip one encoded frame, expecting `want` back; error frames and
  /// type mismatches throw std::runtime_error.
  std::string_view expect(const std::string& request, FrameType want,
                          std::string& response_storage);

  Connection& connection_;
};

}  // namespace droplens::svc
