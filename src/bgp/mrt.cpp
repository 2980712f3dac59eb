#include "bgp/mrt.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <optional>
#include <ostream>
#include <string_view>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace droplens::bgp {

namespace {

constexpr char kMagic[4] = {'M', 'R', 'T', 'L'};
constexpr uint16_t kVersion = 1;

template <typename T>
void put(std::ostream& out, T v) {
  // Serialize little-endian byte by byte for portability.
  unsigned char buf[sizeof(T)];
  using U = std::make_unsigned_t<T>;
  U u = static_cast<U>(v);
  for (size_t i = 0; i < sizeof(T); ++i) {
    buf[i] = static_cast<unsigned char>(u >> (8 * i));
  }
  out.write(reinterpret_cast<const char*>(buf), sizeof buf);
}

template <typename T>
T get(std::istream& in) {
  unsigned char buf[sizeof(T)];
  if (!in.read(reinterpret_cast<char*>(buf), sizeof buf)) {
    throw ParseError("MRTL: truncated stream");
  }
  using U = std::make_unsigned_t<T>;
  U u = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    u |= static_cast<U>(buf[i]) << (8 * i);
  }
  return static_cast<T>(u);
}

}  // namespace

void write_mrtl(std::ostream& out, const std::vector<Update>& updates) {
  out.write(kMagic, sizeof kMagic);
  put<uint16_t>(out, kVersion);
  put<uint64_t>(out, updates.size());
  for (const Update& u : updates) {
    put<int32_t>(out, u.date.days());
    put<uint32_t>(out, u.peer);
    put<uint8_t>(out, u.type == UpdateType::kWithdraw ? 1 : 0);
    put<uint32_t>(out, u.prefix.network().value());
    put<uint8_t>(out, static_cast<uint8_t>(u.prefix.length()));
    put<uint16_t>(out, static_cast<uint16_t>(u.path.length()));
    for (net::Asn a : u.path.hops()) put<uint32_t>(out, a.value());
  }
}

namespace {

// Bytes left between the current position and end of stream, or nullopt when
// the stream is not seekable. Restores the read position either way.
std::optional<uint64_t> remaining_bytes(std::istream& in) {
  std::streampos pos = in.tellg();
  if (pos == std::streampos(-1)) return std::nullopt;
  in.seekg(0, std::ios::end);
  std::streampos end = in.tellg();
  in.seekg(pos);
  if (end == std::streampos(-1) || !in) {
    in.clear();
    in.seekg(pos);
    return std::nullopt;
  }
  return static_cast<uint64_t>(end - pos);
}

// date i32 + peer u32 + type u8 + prefix u32 + len u8 + hops u16.
constexpr uint64_t kMinRecordBytes = 16;

Update read_record(std::istream& in) {
  Update u;
  u.date = net::Date(get<int32_t>(in));
  u.peer = get<uint32_t>(in);
  uint8_t type = get<uint8_t>(in);
  if (type > 1) throw ParseError("MRTL: bad update type");
  u.type = type ? UpdateType::kWithdraw : UpdateType::kAnnounce;
  uint32_t net = get<uint32_t>(in);
  uint8_t len = get<uint8_t>(in);
  if (len > 32) throw ParseError("MRTL: bad prefix length");
  try {
    u.prefix = net::Prefix(net::Ipv4(net), len);
  } catch (const InvariantError& e) {
    throw ParseError(std::string("MRTL: ") + e.what());
  }
  uint16_t hops = get<uint16_t>(in);
  std::vector<net::Asn> path;
  path.reserve(hops);
  for (uint16_t h = 0; h < hops; ++h) path.emplace_back(get<uint32_t>(in));
  u.path = AsPath(std::move(path));
  if (u.type == UpdateType::kAnnounce && u.path.empty()) {
    throw ParseError("MRTL: announce with empty path");
  }
  return u;
}

// Error text from read_record already carries the "MRTL: " prefix; strip it
// before re-wrapping with record context.
std::string strip_prefix(std::string_view what) {
  constexpr std::string_view kPrefix = "MRTL: ";
  if (what.substr(0, kPrefix.size()) == kPrefix) {
    what.remove_prefix(kPrefix.size());
  }
  return std::string(what);
}

}  // namespace

std::vector<Update> read_mrtl(std::istream& in, util::ParsePolicy policy,
                              util::ParseReport* report) {
  obs::Span span("parse.mrtl");
  size_t skipped = 0;
  char magic[4];
  if (!in.read(magic, sizeof magic) || std::memcmp(magic, kMagic, 4) != 0) {
    // A bad magic means the whole file is unusable; that is a hard error in
    // both policies (there is nothing to salvage records from).
    throw ParseError("MRTL: bad magic");
  }
  uint16_t version = get<uint16_t>(in);
  if (version != kVersion) {
    throw ParseError("MRTL: unsupported version " + std::to_string(version));
  }
  uint64_t count = get<uint64_t>(in);
  // The count is untrusted input: a bit-flipped header must not drive a
  // multi-GB allocation. Validate it against the bytes actually left in the
  // stream (each record is at least kMinRecordBytes) before reserving.
  std::optional<uint64_t> left = remaining_bytes(in);
  if (left && count > *left / kMinRecordBytes) {
    throw ParseError("MRTL: header declares " + std::to_string(count) +
                     " records but only " + std::to_string(*left) +
                     " bytes remain");
  }
  std::vector<Update> out;
  out.reserve(static_cast<size_t>(std::min<uint64_t>(count, 1 << 16)));
  for (uint64_t i = 0; i < count; ++i) {
    std::streampos record_start = in.tellg();
    try {
      out.push_back(read_record(in));
    } catch (const ParseError& e) {
      if (policy == util::ParsePolicy::kStrict) {
        throw ParseError("MRTL: record " + std::to_string(i) + ": " +
                         strip_prefix(e.what()));
      }
      // Binary records carry no framing to resync on, so a corrupt record
      // ends the stream: keep what parsed, account for the rest.
      if (report) {
        uint64_t offset = record_start == std::streampos(-1)
                              ? 0
                              : static_cast<uint64_t>(record_start);
        report->add_error_at(
            offset, "record " + std::to_string(i) + ": " +
                        strip_prefix(e.what()) + "; dropped remaining " +
                        std::to_string(count - i) + " records");
      }
      skipped = static_cast<size_t>(count - i);
      break;
    }
    if (report) report->add_parsed();
  }
  if (obs::Registry* reg = obs::installed()) {
    obs::Labels feed{{"feed", "bgp"}};
    reg->counter("droplens_parse_records_total", feed).inc(out.size());
    reg->counter("droplens_parse_records_skipped_total", feed).inc(skipped);
  }
  return out;
}

}  // namespace droplens::bgp
