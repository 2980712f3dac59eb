#include "irr/whois.hpp"

#include <cstdint>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace droplens::irr {

WhoisServer::WhoisServer(const Database& db, net::Date today,
                         std::map<std::string, AsSet> sets)
    : db_(db), today_(today), sets_(std::move(sets)) {}

std::string WhoisServer::frame(const std::string& payload) const {
  if (payload.empty()) return "D\n";
  std::string out = "A";
  out += std::to_string(payload.size());
  out += '\n';
  out += payload;
  out += "C\n";
  return out;
}

std::string WhoisServer::handle(std::string_view query) const {
  query = util::trim(query);
  if (query.size() < 2 || query.front() != '!') {
    return "F unrecognized command\n";
  }
  char command = query[1];
  std::string_view arg = query.substr(2);
  try {
    switch (command) {
      case 'r': {
        // !rPREFIX[,o|,l|,M]
        std::string_view spec = arg;
        char option = 0;
        size_t comma = arg.rfind(',');
        if (comma != std::string_view::npos && comma + 2 == arg.size()) {
          option = arg[comma + 1];
          spec = arg.substr(0, comma);
        }
        net::Prefix prefix = net::Prefix::parse(util::trim(spec));
        std::vector<Registration> regs;
        switch (option) {
          case 0:
          case 'o':
            regs = db_.exact(prefix, today_);
            break;
          case 'l':
            regs = db_.covering(prefix, today_);
            break;
          case 'M':
            regs = db_.exact_or_more_specific(prefix, today_);
            break;
          default:
            return "F unknown !r option\n";
        }
        std::string payload;
        for (const Registration& reg : regs) {
          payload += reg.object.to_rpsl();
          payload += '\n';
        }
        return frame(payload);
      }
      case 'g': {
        // !gASN -> space-separated prefixes originated by the ASN.
        std::string_view asn_text = util::trim(arg);
        if (asn_text.size() < 3 || asn_text.substr(0, 2) != "AS") {
          return "F bad ASN\n";
        }
        // Reject unparsable or >32-bit ASNs explicitly: a silent uint32_t
        // truncation would answer for the wrong ASN.
        uint64_t asn_value;
        try {
          asn_value = util::parse_u64(asn_text.substr(2));
        } catch (const ParseError&) {
          return "F bad ASN\n";
        }
        if (asn_value > 0xFFFFFFFFull) return "F bad ASN\n";
        net::Asn asn(static_cast<uint32_t>(asn_value));
        std::vector<std::string> prefixes;
        for (const Registration& reg : db_.all_history()) {
          if (reg.live_on(today_) && reg.object.origin == asn) {
            prefixes.push_back(reg.object.prefix.to_string());
          }
        }
        return frame(util::join(prefixes, " ") +
                     (prefixes.empty() ? "" : "\n"));
      }
      case 'i': {
        // !iAS-SET -> member ASNs after recursive expansion.
        std::vector<net::Asn> asns =
            expand_as_set(sets_, std::string(util::trim(arg)));
        std::vector<std::string> names;
        for (net::Asn a : asns) names.push_back(a.to_string());
        return frame(util::join(names, " ") + (names.empty() ? "" : "\n"));
      }
      default:
        return "F unrecognized command\n";
    }
  } catch (const ParseError& e) {
    return std::string("F ") + e.what() + "\n";
  } catch (const InvariantError& e) {
    return std::string("F ") + e.what() + "\n";
  }
}

}  // namespace droplens::irr
