// irr::WhoisServer riding the svc transport layer.
//
// The whois protocol is newline-delimited where the binary protocol is
// length-prefixed; this adapter supplies the delimiting so the same
// EpollServer / LoopbackConnection core serves both. Lines are capped — a
// peer that streams garbage without a newline gets an F response and a
// closed connection instead of an unbounded buffer.
#pragma once

#include <string>
#include <string_view>

#include "irr/whois.hpp"
#include "svc/transport.hpp"

namespace droplens::svc {

class WhoisService : public Service {
 public:
  /// Longest accepted query line, terminator included.
  static constexpr size_t kMaxLine = 1024;

  explicit WhoisService(const irr::WhoisServer& server) : server_(server) {}

  size_t message_size(std::string_view buffer) const override;
  std::string serve(std::string_view message) override;
  std::string malformed_response(std::string_view head) override;
  /// IRRd-style F error lines for refusals: a connection over the cap or a
  /// shed query gets "F overloaded", a deadline close "F deadline exceeded"
  /// — typed, parseable, and distinct from a silent drop.
  std::string overload_response(std::string_view message) override;
  std::string timeout_response() override;

 private:
  const irr::WhoisServer& server_;
};

/// Client-side framer for IRRd responses ("A<len>\n…C\n", "C\n", "D\n",
/// "F …\n"): pass to TcpClientConnection when talking to a WhoisService.
size_t whois_response_size(std::string_view buffer);

}  // namespace droplens::svc
