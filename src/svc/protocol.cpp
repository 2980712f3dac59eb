#include "svc/protocol.hpp"

#include "util/error.hpp"

namespace droplens::svc {

namespace {

constexpr char kMagic0 = 'D';
constexpr char kMagic1 = 'L';
constexpr size_t kQueryRecordSize = 10;
constexpr size_t kAnswerRecordSize = 8;
constexpr size_t kRangeRunRecordSize = 9 + kAnswerRecordSize;
constexpr size_t kMaxErrorMessage = 256;

// Little-endian append/read helpers. A Reader tracks its own cursor and
// bounds-checks every take; decoders validate declared counts against
// remaining() BEFORE allocating.
void put_u8(std::string& out, uint8_t v) { out.push_back(static_cast<char>(v)); }
void put_u16(std::string& out, uint16_t v) {
  put_u8(out, static_cast<uint8_t>(v));
  put_u8(out, static_cast<uint8_t>(v >> 8));
}
void put_u32(std::string& out, uint32_t v) {
  put_u16(out, static_cast<uint16_t>(v));
  put_u16(out, static_cast<uint16_t>(v >> 16));
}
void put_u64(std::string& out, uint64_t v) {
  put_u32(out, static_cast<uint32_t>(v));
  put_u32(out, static_cast<uint32_t>(v >> 32));
}

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  size_t remaining() const { return bytes_.size() - pos_; }

  uint8_t u8() {
    need(1);
    return static_cast<uint8_t>(bytes_[pos_++]);
  }
  uint16_t u16() {
    uint16_t lo = u8();
    return static_cast<uint16_t>(lo | (uint16_t{u8()} << 8));
  }
  uint32_t u32() {
    uint32_t lo = u16();
    return lo | (uint32_t{u16()} << 16);
  }
  uint64_t u64() {
    uint64_t lo = u32();
    return lo | (uint64_t{u32()} << 32);
  }

  void expect_done(const char* what) const {
    if (pos_ != bytes_.size()) {
      throw ParseError(std::string("svc: trailing bytes after ") + what);
    }
  }

 private:
  void need(size_t n) const {
    if (remaining() < n) throw ParseError("svc: truncated payload");
  }

  std::string_view bytes_;
  size_t pos_ = 0;
};

std::string frame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  put_u8(out, kProtocolVersion);
  put_u8(out, static_cast<uint8_t>(type));
  put_u32(out, static_cast<uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

uint8_t answer_flags(const Answer& a) {
  return static_cast<uint8_t>((a.drop_listed ? 0x01 : 0) |
                              (a.incident ? 0x02 : 0) |
                              (a.as0_covered ? 0x04 : 0) |
                              (a.irr_registered ? 0x08 : 0) |
                              (a.routed ? 0x10 : 0));
}

// The 8-byte answer record, shared by the query and range responses.
void put_answer(std::string& out, const Answer& a) {
  put_u8(out, a.status);
  put_u8(out, a.fields);
  put_u8(out, answer_flags(a));
  put_u8(out, a.categories);
  put_u8(out, a.bucket);
  put_u8(out, static_cast<uint8_t>(a.rov));
  put_u8(out, static_cast<uint8_t>(a.rir_status));
  put_u8(out, a.rir);
}

Answer read_answer(Reader& in) {
  Answer a;
  a.status = in.u8();
  a.fields = in.u8();
  uint8_t flags = in.u8();
  a.drop_listed = flags & 0x01;
  a.incident = flags & 0x02;
  a.as0_covered = flags & 0x04;
  a.irr_registered = flags & 0x08;
  a.routed = flags & 0x10;
  a.categories = in.u8();
  a.bucket = in.u8();
  uint8_t rov = in.u8();
  if (rov > static_cast<uint8_t>(RovStatus::kUnrouted)) {
    throw ParseError("svc: bad ROV status");
  }
  a.rov = static_cast<RovStatus>(rov);
  uint8_t rir_status = in.u8();
  if (rir_status > static_cast<uint8_t>(RirStatus::kUnadministered)) {
    throw ParseError("svc: bad RIR status");
  }
  a.rir_status = static_cast<RirStatus>(rir_status);
  a.rir = in.u8();
  return a;
}

}  // namespace

size_t frame_size(std::string_view buffer) {
  if (buffer.size() < kHeaderSize) {
    // Reject impossible heads early so a stream never stalls on garbage.
    if (!buffer.empty() && buffer[0] != kMagic0) {
      throw ParseError("svc: bad frame magic");
    }
    if (buffer.size() >= 2 && buffer[1] != kMagic1) {
      throw ParseError("svc: bad frame magic");
    }
    return 0;
  }
  FrameHeader header = decode_header(buffer);
  size_t total = kHeaderSize + header.payload_len;
  return buffer.size() >= total ? total : 0;
}

FrameHeader decode_header(std::string_view frame) {
  if (frame.size() < kHeaderSize) throw ParseError("svc: truncated header");
  if (frame[0] != kMagic0 || frame[1] != kMagic1) {
    throw ParseError("svc: bad frame magic");
  }
  FrameHeader header;
  header.protocol = static_cast<uint8_t>(frame[2]);
  if (header.protocol != kProtocolVersion) {
    throw ParseError("svc: unsupported protocol version " +
                     std::to_string(header.protocol));
  }
  uint8_t type = static_cast<uint8_t>(frame[3]);
  if (type < static_cast<uint8_t>(FrameType::kQueryRequest) ||
      type > static_cast<uint8_t>(FrameType::kDeltaResponse)) {
    throw ParseError("svc: unknown frame type " + std::to_string(type));
  }
  header.type = static_cast<FrameType>(type);
  header.payload_len = static_cast<uint32_t>(static_cast<uint8_t>(frame[4])) |
                       (uint32_t{static_cast<uint8_t>(frame[5])} << 8) |
                       (uint32_t{static_cast<uint8_t>(frame[6])} << 16) |
                       (uint32_t{static_cast<uint8_t>(frame[7])} << 24);
  if (header.payload_len > kMaxPayload) {
    throw ParseError("svc: payload length " +
                     std::to_string(header.payload_len) + " exceeds cap");
  }
  return header;
}

std::string_view frame_payload(std::string_view frame) {
  return frame.substr(kHeaderSize);
}

std::string encode_query_request(const std::vector<Query>& queries) {
  if (queries.size() > kMaxBatch) {
    throw InvariantError("svc: batch exceeds kMaxBatch");
  }
  std::string payload;
  payload.reserve(2 + queries.size() * kQueryRecordSize);
  put_u16(payload, static_cast<uint16_t>(queries.size()));
  for (const Query& q : queries) {
    put_u32(payload, static_cast<uint32_t>(q.date.days()));
    put_u32(payload, q.prefix.network().value());
    put_u8(payload, static_cast<uint8_t>(q.prefix.length()));
    put_u8(payload, q.fields);
  }
  return frame(FrameType::kQueryRequest, payload);
}

std::vector<Query> decode_query_request(std::string_view payload) {
  Reader in(payload);
  size_t count = in.u16();
  if (count > kMaxBatch) throw ParseError("svc: batch exceeds kMaxBatch");
  if (in.remaining() != count * kQueryRecordSize) {
    throw ParseError("svc: query count does not match payload size");
  }
  std::vector<Query> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Query q;
    q.date = net::Date(static_cast<int32_t>(in.u32()));
    uint32_t network = in.u32();
    uint8_t plen = in.u8();
    q.fields = in.u8() & kAllFields;
    if (plen > 32) throw ParseError("svc: prefix length > 32");
    // Mask stray host bits instead of rejecting: lookup semantics are
    // point-stab at the network address anyway.
    q.prefix = net::Prefix::containing(net::Ipv4(network), plen);
    queries.push_back(q);
  }
  in.expect_done("query request");
  return queries;
}

std::string encode_query_response(const QueryResponse& response) {
  if (response.answers.size() > kMaxBatch) {
    throw InvariantError("svc: batch exceeds kMaxBatch");
  }
  std::string payload;
  payload.reserve(15 + response.answers.size() * kAnswerRecordSize);
  put_u64(payload, response.snapshot_version);
  put_u32(payload, static_cast<uint32_t>(response.date.days()));
  put_u8(payload, response.degraded);
  put_u16(payload, static_cast<uint16_t>(response.answers.size()));
  for (const Answer& a : response.answers) put_answer(payload, a);
  return frame(FrameType::kQueryResponse, payload);
}

QueryResponse decode_query_response(std::string_view payload) {
  Reader in(payload);
  QueryResponse response;
  response.snapshot_version = in.u64();
  response.date = net::Date(static_cast<int32_t>(in.u32()));
  response.degraded = in.u8();
  size_t count = in.u16();
  if (count > kMaxBatch) throw ParseError("svc: batch exceeds kMaxBatch");
  if (in.remaining() != count * kAnswerRecordSize) {
    throw ParseError("svc: answer count does not match payload size");
  }
  response.answers.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    response.answers.push_back(read_answer(in));
  }
  in.expect_done("query response");
  return response;
}

std::string encode_range_request(const RangeQuery& query) {
  if (query.begin > query.end) {
    throw InvariantError("svc: inverted range window");
  }
  if (static_cast<size_t>(query.end.days() - query.begin.days()) + 1 >
      kMaxRangeDays) {
    throw InvariantError("svc: range exceeds kMaxRangeDays");
  }
  std::string payload;
  payload.reserve(14);
  put_u32(payload, static_cast<uint32_t>(query.begin.days()));
  put_u32(payload, static_cast<uint32_t>(query.end.days()));
  put_u32(payload, query.prefix.network().value());
  put_u8(payload, static_cast<uint8_t>(query.prefix.length()));
  put_u8(payload, query.fields);
  return frame(FrameType::kRangeRequest, payload);
}

RangeQuery decode_range_request(std::string_view payload) {
  Reader in(payload);
  RangeQuery q;
  q.begin = net::Date(static_cast<int32_t>(in.u32()));
  q.end = net::Date(static_cast<int32_t>(in.u32()));
  uint32_t network = in.u32();
  uint8_t plen = in.u8();
  q.fields = in.u8() & kAllFields;
  in.expect_done("range request");
  if (q.begin > q.end) throw ParseError("svc: inverted range window");
  if (static_cast<uint64_t>(q.end.days()) -
          static_cast<uint64_t>(q.begin.days()) + 1 >
      kMaxRangeDays) {
    throw ParseError("svc: range exceeds kMaxRangeDays");
  }
  if (plen > 32) throw ParseError("svc: prefix length > 32");
  q.prefix = net::Prefix::containing(net::Ipv4(network), plen);
  return q;
}

std::string encode_range_response(const RangeResponse& response) {
  if (response.runs.size() > kMaxRangeDays) {
    throw InvariantError("svc: too many range runs");
  }
  std::string payload;
  payload.reserve(8 + response.runs.size() * kRangeRunRecordSize);
  put_u32(payload, response.prefix.network().value());
  put_u8(payload, static_cast<uint8_t>(response.prefix.length()));
  put_u8(payload, response.fields);
  put_u16(payload, static_cast<uint16_t>(response.runs.size()));
  for (const RangeRun& run : response.runs) {
    put_u32(payload, static_cast<uint32_t>(run.start.days()));
    put_u32(payload, run.days);
    put_u8(payload, run.degraded);
    put_answer(payload, run.answer);
  }
  return frame(FrameType::kRangeResponse, payload);
}

RangeResponse decode_range_response(std::string_view payload) {
  Reader in(payload);
  RangeResponse response;
  uint32_t network = in.u32();
  uint8_t plen = in.u8();
  if (plen > 32) throw ParseError("svc: prefix length > 32");
  response.prefix = net::Prefix::containing(net::Ipv4(network), plen);
  response.fields = in.u8() & kAllFields;
  size_t count = in.u16();
  if (count > kMaxRangeDays) throw ParseError("svc: too many range runs");
  if (in.remaining() != count * kRangeRunRecordSize) {
    throw ParseError("svc: run count does not match payload size");
  }
  response.runs.reserve(count);
  uint64_t total_days = 0;
  for (size_t i = 0; i < count; ++i) {
    RangeRun run;
    run.start = net::Date(static_cast<int32_t>(in.u32()));
    run.days = in.u32();
    run.degraded = in.u8();
    run.answer = read_answer(in);
    if (run.days == 0) throw ParseError("svc: empty range run");
    if (!response.runs.empty()) {
      const RangeRun& prev = response.runs.back();
      if (run.start.days() !=
          prev.start.days() + static_cast<int32_t>(prev.days)) {
        throw ParseError("svc: range runs are not contiguous");
      }
    }
    total_days += run.days;
    if (total_days > kMaxRangeDays) {
      throw ParseError("svc: range runs exceed kMaxRangeDays");
    }
    response.runs.push_back(run);
  }
  in.expect_done("range response");
  return response;
}

std::string encode_error(std::string_view message) {
  return frame(FrameType::kError, message.substr(0, kMaxErrorMessage));
}

std::string decode_error(std::string_view payload) {
  return std::string(payload.substr(0, kMaxErrorMessage));
}

std::string encode_frame(FrameType type, std::string_view payload) {
  if (payload.size() > kMaxPayload) {
    throw InvariantError("svc: payload exceeds kMaxPayload");
  }
  return frame(type, payload);
}

}  // namespace droplens::svc
