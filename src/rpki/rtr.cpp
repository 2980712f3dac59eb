#include "rpki/rtr.hpp"

#include "util/error.hpp"

namespace droplens::rpki {

namespace {

constexpr uint8_t kVersion = 1;

void put_u8(std::string& out, uint8_t v) {
  out.push_back(static_cast<char>(v));
}
void put_u16(std::string& out, uint16_t v) {
  out.push_back(static_cast<char>(v >> 8));
  out.push_back(static_cast<char>(v & 0xff));
}
void put_u32(std::string& out, uint32_t v) {
  out.push_back(static_cast<char>(v >> 24));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>(v & 0xff));
}

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool done() const { return pos_ >= bytes_.size(); }
  size_t remaining() const { return bytes_.size() - pos_; }

  uint8_t u8() {
    need(1);
    return static_cast<uint8_t>(bytes_[pos_++]);
  }
  uint16_t u16() { return static_cast<uint16_t>((u8() << 8) | u8()); }
  uint32_t u32() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | u8();
    return v;
  }
  std::string text(size_t n) {
    need(n);
    std::string out(bytes_.substr(pos_, n));
    pos_ += n;
    return out;
  }

 private:
  void need(size_t n) {
    if (pos_ + n > bytes_.size()) {
      throw ParseError("RTR: truncated PDU");
    }
  }
  std::string_view bytes_;
  size_t pos_ = 0;
};

}  // namespace

std::string serialize_pdu(const Pdu& pdu) {
  std::string out;
  put_u8(out, kVersion);
  put_u8(out, static_cast<uint8_t>(pdu.type));
  switch (pdu.type) {
    case PduType::kSerialNotify:
    case PduType::kSerialQuery:
      put_u16(out, pdu.session_id);
      put_u32(out, 12);
      put_u32(out, pdu.serial);
      break;
    case PduType::kResetQuery:
    case PduType::kCacheReset:
      put_u16(out, 0);
      put_u32(out, 8);
      break;
    case PduType::kCacheResponse:
      put_u16(out, pdu.session_id);
      put_u32(out, 8);
      break;
    case PduType::kIpv4Prefix:
      put_u16(out, 0);
      put_u32(out, 20);
      put_u8(out, pdu.announce ? 1 : 0);
      put_u8(out, static_cast<uint8_t>(pdu.vrp.prefix.length()));
      put_u8(out, static_cast<uint8_t>(pdu.vrp.max_length));
      put_u8(out, 0);
      put_u32(out, pdu.vrp.prefix.network().value());
      put_u32(out, pdu.vrp.asn.value());
      break;
    case PduType::kEndOfData:
      put_u16(out, pdu.session_id);
      put_u32(out, 24);
      put_u32(out, pdu.serial);
      put_u32(out, 3600);   // refresh
      put_u32(out, 600);    // retry
      put_u32(out, 7200);   // expire
      break;
    case PduType::kErrorReport:
      put_u16(out, pdu.error_code);
      put_u32(out, static_cast<uint32_t>(12 + pdu.error_text.size()));
      put_u32(out, static_cast<uint32_t>(pdu.error_text.size()));
      out += pdu.error_text;
      break;
  }
  return out;
}

std::vector<Pdu> parse_pdus(std::string_view bytes) {
  std::vector<Pdu> out;
  Reader r(bytes);
  while (!r.done()) {
    uint8_t version = r.u8();
    if (version != kVersion) {
      throw ParseError("RTR: unsupported version " + std::to_string(version));
    }
    uint8_t type = r.u8();
    uint16_t session_or_code = r.u16();
    uint32_t length = r.u32();
    if (length < 8) throw ParseError("RTR: bad PDU length");
    Pdu pdu;
    switch (static_cast<PduType>(type)) {
      case PduType::kSerialNotify:
      case PduType::kSerialQuery:
        if (length != 12) throw ParseError("RTR: bad serial PDU length");
        pdu.type = static_cast<PduType>(type);
        pdu.session_id = session_or_code;
        pdu.serial = r.u32();
        break;
      case PduType::kResetQuery:
      case PduType::kCacheReset:
        if (length != 8) throw ParseError("RTR: bad query PDU length");
        pdu.type = static_cast<PduType>(type);
        break;
      case PduType::kCacheResponse:
        if (length != 8) throw ParseError("RTR: bad response PDU length");
        pdu.type = PduType::kCacheResponse;
        pdu.session_id = session_or_code;
        break;
      case PduType::kIpv4Prefix: {
        if (length != 20) throw ParseError("RTR: bad prefix PDU length");
        pdu.type = PduType::kIpv4Prefix;
        uint8_t flags = r.u8();
        uint8_t plen = r.u8();
        uint8_t maxlen = r.u8();
        r.u8();  // zero
        uint32_t addr = r.u32();
        uint32_t asn = r.u32();
        if (plen > 32 || maxlen > 32 || maxlen < plen) {
          throw ParseError("RTR: bad prefix lengths");
        }
        pdu.announce = flags & 1;
        try {
          pdu.vrp = Vrp{net::Prefix(net::Ipv4(addr), plen),
                        static_cast<int>(maxlen), net::Asn(asn)};
        } catch (const InvariantError& e) {
          throw ParseError(std::string("RTR: ") + e.what());
        }
        break;
      }
      case PduType::kEndOfData:
        if (length != 24) throw ParseError("RTR: bad end-of-data length");
        pdu.type = PduType::kEndOfData;
        pdu.session_id = session_or_code;
        pdu.serial = r.u32();
        r.u32();  // refresh
        r.u32();  // retry
        r.u32();  // expire
        break;
      case PduType::kErrorReport: {
        pdu.type = PduType::kErrorReport;
        pdu.error_code = session_or_code;
        uint32_t text_len = r.u32();
        if (length != 12 + text_len) {
          throw ParseError("RTR: bad error-report length");
        }
        pdu.error_text = r.text(text_len);
        break;
      }
      default:
        throw ParseError("RTR: unknown PDU type " + std::to_string(type));
    }
    out.push_back(std::move(pdu));
  }
  return out;
}

}  // namespace droplens::rpki
