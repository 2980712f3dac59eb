// Wire protocol of the prefix-intelligence query service.
//
// Length-prefixed binary frames, little-endian integers throughout:
//
//   frame   := 'D' 'L' version:u8 type:u8 payload_len:u32 payload
//   query request payload  := count:u16 count * { date:u32 network:u32
//                             plen:u8 fields:u8 }                (10 B each)
//   query response payload := snapshot_version:u64 date:u32 degraded:u8
//                             count:u16 count * answer           (8 B each)
//   answer  := status:u8 fields:u8 flags:u8 categories:u8 bucket:u8
//              rov:u8 rir_status:u8 rir:u8
//   error payload          := message bytes (<= 256)
//   range request payload  := date_begin:u32 date_end:u32 network:u32
//                             plen:u8 fields:u8                  (14 B)
//   range response payload := network:u32 plen:u8 fields:u8 run_count:u16
//                             run_count * { start_date:u32 days:u32
//                             degraded:u8 answer }               (17 B each)
//   subscribe request payload := from_seq:u64 max_events:u32     (12 B)
//   delta response payload    := streaming delta (see stream/wire.hpp; svc
//                                carries these two payloads opaquely)
//
// A query batch may mix dates: each query record carries its own date:u32
// and the server resolves every distinct date in the frame. The response
// header's date/version/degraded describe the first query's date;
// per-answer status says kOk or kUnavailable (neither the server's live
// head nor its store could serve that date).
//
// The range op asks one prefix's status across an inclusive date window
// [date_begin, date_end] (at most kMaxRangeDays days) and answers with
// run-length-encoded transitions: consecutive days whose answer bytes and
// degradation bits are identical collapse into one run. Runs are contiguous
// and ascending — run[i+1].start_date == run[i].start_date + run[i].days —
// and cover the window exactly; decoders reject anything else. Days the
// store cannot serve appear as runs whose answer status is kUnavailable.
//
// Responses carry the snapshot version so clients detect reloads mid-batch.
// Decoding is strictly bounds-checked: declared counts are validated against
// the bytes actually present before anything is allocated, and payload
// length is capped — a malformed or hostile frame costs a ParseError, never
// an over-allocation or a crash (same discipline as bgp::read_mrtl).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/date.hpp"
#include "net/prefix.hpp"
#include "svc/snapshot.hpp"

namespace droplens::svc {

inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kHeaderSize = 8;
inline constexpr size_t kMaxPayload = size_t{1} << 20;
/// Queries per frame; bounds the per-frame work a client can demand.
inline constexpr size_t kMaxBatch = 4096;
/// Days per range query; bounds the per-frame work like kMaxBatch does for
/// batches (a paper-scale window is ~1000 days, well inside).
inline constexpr size_t kMaxRangeDays = 4096;

/// Frame types 3 and 4 (a retired stats op) and 6 and 7 (a retired metrics
/// op; the admin plane's /metrics serves that page) stay unassigned: a
/// client that sends any of them gets kError back ("unexpected frame type
/// from client"), like any other type the server does not accept.
enum class FrameType : uint8_t {
  kQueryRequest = 1,
  kQueryResponse = 2,
  kError = 5,
  // Appended numbering: old clients never send these and old frames decode
  // exactly as before, so the protocol stays byte-compatible. The range op
  // asks one prefix across a date window and gets RLE-compressed
  // transitions.
  kRangeRequest = 8,
  kRangeResponse = 9,
  // Live-follow ops (same compatibility rule). The payloads are defined by
  // the streaming layer (stream/wire.hpp); svc carries them opaquely so the
  // service library stays independent of stream. A server without a stream
  // feed attached answers kSubscribeRequest with kError.
  kSubscribeRequest = 10,
  kDeltaResponse = 11,
};

/// Per-answer status. Wire value 1 is retired and stays unassigned.
enum class QueryStatus : uint8_t {
  kOk = 0,
  kUnavailable = 2,  // neither the live head nor the store serves the date
};

struct Query {
  net::Date date;
  net::Prefix prefix;
  uint8_t fields = kAllFields;

  friend bool operator==(const Query&, const Query&) = default;
};

struct QueryResponse {
  uint64_t snapshot_version = 0;
  net::Date date;
  uint8_t degraded = 0;  // core::Feed degradation bits of the snapshot
  std::vector<Answer> answers;

  friend bool operator==(const QueryResponse&, const QueryResponse&) = default;
};

/// One prefix across an inclusive date window — the range op's request.
struct RangeQuery {
  net::Date begin;
  net::Date end;  // inclusive; end - begin + 1 <= kMaxRangeDays
  net::Prefix prefix;
  uint8_t fields = kAllFields;

  friend bool operator==(const RangeQuery&, const RangeQuery&) = default;
};

/// A maximal run of consecutive days with one identical answer.
struct RangeRun {
  net::Date start;
  uint32_t days = 1;
  uint8_t degraded = 0;  // the run's snapshot degradation bits
  Answer answer;

  friend bool operator==(const RangeRun&, const RangeRun&) = default;
};

struct RangeResponse {
  net::Prefix prefix;
  uint8_t fields = kAllFields;
  /// Contiguous, ascending, covering the queried window exactly.
  std::vector<RangeRun> runs;

  friend bool operator==(const RangeResponse&, const RangeResponse&) = default;
};

struct FrameHeader {
  uint8_t protocol = 0;
  FrameType type = FrameType::kError;
  uint32_t payload_len = 0;
};

/// Size in bytes of the complete frame at the head of `buffer`, or 0 when
/// more data is needed. Throws ParseError when the head cannot be a frame
/// (bad magic/version, or a declared payload beyond kMaxPayload).
size_t frame_size(std::string_view buffer);

/// Decode and validate a complete frame's header. Throws ParseError.
FrameHeader decode_header(std::string_view frame);

/// The payload slice of a complete frame (header already validated).
std::string_view frame_payload(std::string_view frame);

std::string encode_query_request(const std::vector<Query>& queries);
/// Throws ParseError on count/byte mismatch or an invalid prefix length.
std::vector<Query> decode_query_request(std::string_view payload);

std::string encode_query_response(const QueryResponse& response);
QueryResponse decode_query_response(std::string_view payload);

std::string encode_range_request(const RangeQuery& query);
/// Throws ParseError on a bad prefix length, an inverted window, or a span
/// beyond kMaxRangeDays.
RangeQuery decode_range_request(std::string_view payload);

std::string encode_range_response(const RangeResponse& response);
/// Validates the runs' contiguity/coverage contract. Throws ParseError.
RangeResponse decode_range_response(std::string_view payload);

std::string encode_error(std::string_view message);
std::string decode_error(std::string_view payload);

/// Wrap an arbitrary payload in a frame of the given type — the hook the
/// streaming layer uses for its subscribe/delta payloads (whose codecs live
/// in stream/wire.hpp, outside this library). Payloads beyond kMaxPayload
/// throw InvariantError.
std::string encode_frame(FrameType type, std::string_view payload);

}  // namespace droplens::svc
