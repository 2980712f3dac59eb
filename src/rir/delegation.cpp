#include "rir/delegation.hpp"

#include <cctype>
#include <optional>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace droplens::rir {

std::string_view to_string(DelegationStatus s) {
  switch (s) {
    case DelegationStatus::kAllocated: return "allocated";
    case DelegationStatus::kAssigned: return "assigned";
    case DelegationStatus::kAvailable: return "available";
    case DelegationStatus::kReserved: return "reserved";
  }
  return "?";
}

DelegationStatus parse_status(std::string_view s) {
  if (s == "allocated") return DelegationStatus::kAllocated;
  if (s == "assigned") return DelegationStatus::kAssigned;
  if (s == "available") return DelegationStatus::kAvailable;
  if (s == "reserved") return DelegationStatus::kReserved;
  throw ParseError("unknown delegation status: '" + std::string(s) + "'");
}

namespace {

// Parse one non-comment line; returns nullopt for the header, summary, and
// non-ipv4 lines that the format defines but this reader skips.
std::optional<DelegationRecord> parse_delegation_line(std::string_view line) {
  std::vector<std::string_view> f = util::split(line, '|');
  if (f.size() >= 2 && f[1] == "*") return std::nullopt;  // summary line
  if (f.size() >= 1 && !f[0].empty() &&
      std::isdigit(static_cast<unsigned char>(f[0].front())) &&
      f[0].find('.') == std::string_view::npos) {
    return std::nullopt;  // version header: "2|apnic|20220330|..."
  }
  if (f.size() < 7) {
    throw ParseError("short record: '" + std::string(line) + "'");
  }
  if (f[2] != "ipv4") return std::nullopt;  // asn / ipv6 are out of scope
  DelegationRecord rec;
  rec.registry = parse_rir(f[0]);
  rec.country = std::string(f[1]);
  rec.start = net::Ipv4::parse(f[3]);
  rec.value = util::parse_u64(f[4]);
  if (rec.value == 0 ||
      uint64_t{rec.start.value()} + rec.value > (uint64_t{1} << 32)) {
    throw ParseError("bad address count: '" + std::string(line) + "'");
  }
  rec.date = f[5].empty() ? net::Date(0) : net::Date::parse(f[5]);
  rec.status = parse_status(f[6]);
  if (f.size() >= 8) rec.opaque_id = std::string(f[7]);
  return rec;
}

}  // namespace

std::vector<DelegationRecord> parse_delegation_file(
    std::string_view text, util::ParsePolicy policy,
    util::ParseReport* report) {
  obs::Span span("parse.delegation");
  std::vector<DelegationRecord> out;
  size_t line_no = 0;
  size_t skipped = 0;
  for (std::string_view line : util::split(text, '\n')) {
    ++line_no;
    line = util::trim(line);
    if (line.empty() || line.front() == '#') continue;
    std::optional<DelegationRecord> rec;
    try {
      rec = parse_delegation_line(line);
    } catch (const ParseError& e) {
      if (policy == util::ParsePolicy::kStrict) {
        throw ParseError("delegation line " + std::to_string(line_no) + ": " +
                         e.what());
      }
      if (report) report->add_error(line_no, e.what());
      ++skipped;
      continue;
    }
    if (!rec) continue;
    if (report) report->add_parsed();
    out.push_back(std::move(*rec));
  }
  if (obs::Registry* reg = obs::installed()) {
    obs::Labels feed{{"feed", "delegations"}};
    reg->counter("droplens_parse_records_total", feed).inc(out.size());
    reg->counter("droplens_parse_records_skipped_total", feed).inc(skipped);
  }
  return out;
}

std::string write_delegation_file(
    Rir registry, net::Date snapshot,
    const std::vector<DelegationRecord>& records) {
  std::string name(delegation_name(registry));
  auto ymd_compact = [](net::Date d) {
    std::string s = d.to_string();  // YYYY-MM-DD
    // Dates far outside the civil range (e.g. negative years) render shorter
    // or shifted; substr on those would throw std::out_of_range. Surface the
    // bad date as a ParseError instead.
    if (s.size() < 10 || s[4] != '-' || s[7] != '-') {
      throw ParseError("delegation: unrepresentable date '" + s + "'");
    }
    return s.substr(0, 4) + s.substr(5, 2) + s.substr(8, 2);
  };
  std::string out = "2|" + name + "|" + ymd_compact(snapshot) + "|" +
                    std::to_string(records.size()) + "||" +
                    ymd_compact(snapshot) + "|+0000\n";
  out += name + "|*|ipv4|*|" + std::to_string(records.size()) + "|summary\n";
  for (const DelegationRecord& r : records) {
    out += name;
    out += '|';
    out += r.country.empty() ? "ZZ" : r.country;
    out += "|ipv4|";
    out += r.start.to_string();
    out += '|';
    out += std::to_string(r.value);
    out += '|';
    out += r.date == net::Date(0) ? std::string() : ymd_compact(r.date);
    out += '|';
    out += to_string(r.status);
    if (!r.opaque_id.empty()) {
      out += '|';
      out += r.opaque_id;
    }
    out += '\n';
  }
  return out;
}

}  // namespace droplens::rir
