#include "rpki/roa.hpp"

#include "util/error.hpp"

namespace droplens::rpki {

Roa::Roa(net::Prefix prefix_in, net::Asn asn_in, Tal tal_in, int max_length_in)
    : prefix(prefix_in),
      max_length(max_length_in == 0 ? prefix_in.length() : max_length_in),
      asn(asn_in),
      tal(tal_in) {
  if (max_length < prefix.length() || max_length > 32) {
    throw InvariantError("ROA maxLength out of range for " +
                         prefix.to_string());
  }
}

std::string Roa::to_string() const {
  std::string out = prefix.to_string();
  if (max_length != prefix.length()) {
    out += '-';
    out += std::to_string(max_length);
  }
  out += " => ";
  out += asn.to_string();
  out += " [";
  out += rpki::to_string(tal);
  out += ']';
  return out;
}

}  // namespace droplens::rpki
