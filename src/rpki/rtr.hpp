// RPKI-to-Router protocol (RFC 8210, IPv4 subset): the PDU codec.
//
// The delivery path between a relying-party cache and a router doing ROV:
// the router opens a session, the cache streams validated ROA payloads
// (VRPs) and incremental updates keyed by serial numbers. This file is the
// wire format only (big-endian, version 1): a PDU value type, its
// serializer, a parser that rejects malformed bytes with a ParseError, and
// the RFC 1982 serial comparison. Serving RTR as a projection of
// `stream::EventLog` (ROADMAP item 5) builds on this codec.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/asn.hpp"
#include "net/prefix.hpp"

namespace droplens::rpki {

/// A validated ROA payload as carried on the wire.
struct Vrp {
  net::Prefix prefix;
  int max_length = 0;
  net::Asn asn;
};

enum class PduType : uint8_t {
  kSerialNotify = 0,
  kSerialQuery = 1,
  kResetQuery = 2,
  kCacheResponse = 3,
  kIpv4Prefix = 4,
  kEndOfData = 7,
  kCacheReset = 8,
  kErrorReport = 10,
};

/// One parsed PDU (fields used depend on `type`).
struct Pdu {
  PduType type = PduType::kResetQuery;
  uint16_t session_id = 0;
  uint32_t serial = 0;          // serial notify/query, end of data
  bool announce = true;         // ipv4 prefix flag
  Vrp vrp;                      // ipv4 prefix payload
  uint16_t error_code = 0;      // error report
  std::string error_text;
};

/// RFC 1982 serial-number comparison on the 32-bit sequence space
/// (RFC 8210 §5.1): true iff `a` precedes `b`, i.e. the distance from `a`
/// forward to `b` is in (0, 2^31). Plain `<` breaks the serial-query path
/// at the 2^32 wraparound — a cache at serial 1 would treat a router at
/// serial 0xffffffff as being from the future and force a full resync.
constexpr bool serial_lt(uint32_t a, uint32_t b) {
  return static_cast<int32_t>(a - b) < 0;
}

/// Serialize one PDU to wire bytes (big-endian, protocol version 1).
std::string serialize_pdu(const Pdu& pdu);

/// Parse a buffer of concatenated PDUs. Throws ParseError on malformed
/// input (bad version, bad length, unknown type).
std::vector<Pdu> parse_pdus(std::string_view bytes);

}  // namespace droplens::rpki
