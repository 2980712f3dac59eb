#include "svc/client.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace droplens::svc {

std::string_view Client::expect(const std::string& request, FrameType want,
                                std::string& response_storage) {
  response_storage = connection_.roundtrip(request);
  // A broken server can send anything; decode defensively and surface the
  // problem as an exception rather than garbage answers.
  if (frame_size(response_storage) != response_storage.size()) {
    throw std::runtime_error("svc client: incomplete response frame");
  }
  FrameHeader header = decode_header(response_storage);
  if (header.type == FrameType::kError) {
    throw std::runtime_error("svc server error: " +
                             decode_error(frame_payload(response_storage)));
  }
  if (header.type != want) {
    throw std::runtime_error("svc client: unexpected response frame type");
  }
  return frame_payload(response_storage);
}

Answer Client::lookup(net::Date date, const net::Prefix& prefix,
                      uint8_t fields) {
  Query q;
  q.date = date;
  q.prefix = prefix;
  q.fields = fields;
  QueryResponse response = query({q});
  if (response.answers.size() != 1) {
    throw std::runtime_error("svc client: answer count mismatch");
  }
  return response.answers[0];
}

QueryResponse Client::query(const std::vector<Query>& queries) {
  QueryResponse merged;
  std::string storage;
  for (size_t begin = 0; begin < queries.size() || queries.empty();) {
    const size_t end = std::min(queries.size(), begin + kMaxBatch);
    std::vector<Query> chunk(queries.begin() + static_cast<ptrdiff_t>(begin),
                             queries.begin() + static_cast<ptrdiff_t>(end));
    std::string_view payload =
        expect(encode_query_request(chunk), FrameType::kQueryResponse, storage);
    QueryResponse part = decode_query_response(payload);
    if (part.answers.size() != chunk.size()) {
      throw std::runtime_error("svc client: answer count mismatch");
    }
    merged.snapshot_version = part.snapshot_version;
    merged.date = part.date;
    merged.degraded = part.degraded;
    merged.answers.insert(merged.answers.end(), part.answers.begin(),
                          part.answers.end());
    begin = end;
    if (queries.empty()) break;  // one empty frame round-trips the metadata
  }
  return merged;
}

RangeResponse Client::range(net::Date begin, net::Date end,
                            const net::Prefix& prefix, uint8_t fields) {
  RangeQuery rq;
  rq.begin = begin;
  rq.end = end;
  rq.prefix = prefix;
  rq.fields = fields;
  std::string storage;
  std::string_view payload = expect(encode_range_request(rq),
                                    FrameType::kRangeResponse, storage);
  RangeResponse response = decode_range_response(payload);
  // The decoder already proved the runs contiguous and ascending; pin the
  // window bounds too so a confused server can't silently shift the answer.
  if (response.runs.empty() ||
      response.runs.front().start.days() != begin.days() ||
      response.runs.back().start.days() +
              static_cast<int32_t>(response.runs.back().days) !=
          end.days() + 1) {
    throw std::runtime_error("svc client: range response window mismatch");
  }
  return response;
}

std::string Client::subscribe_raw(std::string_view payload) {
  std::string storage;
  std::string_view response =
      expect(encode_frame(FrameType::kSubscribeRequest, payload),
             FrameType::kDeltaResponse, storage);
  return std::string(response);
}

}  // namespace droplens::svc
