#include "rpki/roa_csv.hpp"

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace droplens::rpki {

namespace {

std::string_view uri_host(Tal tal) {
  switch (tal) {
    case Tal::kAfrinic: return "rpki.afrinic.net";
    case Tal::kApnic: return "rpki.apnic.net";
    case Tal::kArin: return "rpki.arin.net";
    case Tal::kLacnic: return "repository.lacnic.net";
    case Tal::kRipe: return "rpki.ripe.net";
    case Tal::kApnicAs0: return "rpki-as0.apnic.net";
    case Tal::kLacnicAs0: return "rpki-as0.lacnic.net";
  }
  return "?";
}

Tal tal_from_uri(std::string_view uri) {
  for (Tal t : kAllTals) {
    if (uri.find(uri_host(t)) != std::string_view::npos) return t;
  }
  throw ParseError("unrecognized repository URI: '" + std::string(uri) + "'");
}

}  // namespace

std::string write_roa_csv(const RoaArchive& archive, net::Date d,
                          TalSet tals) {
  std::string out = "URI,ASN,IP Prefix,Max Length,Not Before,Not After\n";
  size_t n = 0;
  for (const RoaRecord& r : archive.live_records(d, tals)) {
    out += "rsync://" + std::string(uri_host(r.roa.tal)) + "/repository/" +
           std::to_string(n++) + ".roa,";
    out += r.roa.asn.to_string();
    out += ',';
    out += r.roa.prefix.to_string();
    out += ',';
    out += std::to_string(r.roa.max_length);
    out += ',';
    out += r.lifetime.begin.to_string();
    out += ',';
    out += r.lifetime.end == net::DateRange::unbounded()
               ? "never"
               : r.lifetime.end.to_string();
    out += '\n';
  }
  return out;
}

namespace {

RoaRecord parse_roa_row(std::string_view line) {
  std::vector<std::string_view> f = util::split(line, ',');
  if (f.size() < 6) {
    throw ParseError("short row: '" + std::string(line) + "'");
  }
  Tal tal = tal_from_uri(f[0]);
  std::string_view asn_text = util::trim(f[1]);
  if (asn_text.size() < 3 || (asn_text.substr(0, 2) != "AS")) {
    throw ParseError("bad ASN: '" + std::string(asn_text) + "'");
  }
  net::Asn asn(static_cast<uint32_t>(util::parse_u64(asn_text.substr(2))));
  net::Prefix prefix = net::Prefix::parse(util::trim(f[2]));
  int max_length = static_cast<int>(util::parse_u64(util::trim(f[3])));
  net::Date begin = net::Date::parse(util::trim(f[4]));
  std::string_view after = util::trim(f[5]);
  net::Date end = after == "never" ? net::DateRange::unbounded()
                                   : net::Date::parse(after);
  try {
    return RoaRecord{Roa(prefix, asn, tal, max_length),
                     net::DateRange{begin, end}};
  } catch (const InvariantError& e) {
    throw ParseError(e.what());
  }
}

}  // namespace

std::vector<RoaRecord> parse_roa_csv(std::string_view text,
                                     util::ParsePolicy policy,
                                     util::ParseReport* report) {
  obs::Span span("parse.roa_csv");
  std::vector<RoaRecord> out;
  bool first = true;
  size_t line_no = 0;
  size_t skipped = 0;
  for (std::string_view line : util::split(text, '\n')) {
    ++line_no;
    line = util::trim(line);
    if (line.empty()) continue;
    if (first && line.substr(0, 3) == "URI") {
      first = false;
      continue;  // header
    }
    first = false;
    try {
      out.push_back(parse_roa_row(line));
    } catch (const ParseError& e) {
      if (policy == util::ParsePolicy::kStrict) {
        throw ParseError("roas.csv line " + std::to_string(line_no) + ": " +
                         e.what());
      }
      if (report) report->add_error(line_no, e.what());
      ++skipped;
      continue;
    }
    if (report) report->add_parsed();
  }
  if (obs::Registry* reg = obs::installed()) {
    obs::Labels feed{{"feed", "roas"}};
    reg->counter("droplens_parse_records_total", feed).inc(out.size());
    reg->counter("droplens_parse_records_skipped_total", feed).inc(skipped);
  }
  return out;
}

size_t load_roa_csv(RoaArchive& archive, std::string_view text,
                    util::ParsePolicy policy, util::ParseReport* report) {
  size_t n = 0;
  for (const RoaRecord& r : parse_roa_csv(text, policy, report)) {
    archive.publish(r.roa, r.lifetime.begin);
    if (r.lifetime.end != net::DateRange::unbounded()) {
      archive.revoke(r.roa, r.lifetime.end);
    }
    ++n;
  }
  return n;
}

}  // namespace droplens::rpki
