#include "irr/rpsl.hpp"

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace droplens::irr {

std::optional<std::string_view> RpslObject::get(std::string_view name) const {
  for (const auto& [attr, value] : attributes) {
    if (attr == name) return std::string_view(value);
  }
  return std::nullopt;
}

std::string RpslObject::to_string() const {
  std::string out;
  for (const auto& [attr, value] : attributes) {
    out += attr;
    out += ':';
    // Column-align values the way IRR whois output does.
    size_t pad = attr.size() + 1 < 16 ? 16 - attr.size() - 1 : 1;
    out += std::string(pad, ' ');
    out += value;
    out += '\n';
  }
  return out;
}

std::vector<RpslObject> parse_rpsl(std::string_view text,
                                   util::ParsePolicy policy,
                                   util::ParseReport* report) {
  obs::Span span("parse.rpsl");
  size_t skipped = 0;
  std::vector<RpslObject> objects;
  RpslObject current;
  auto flush = [&] {
    if (!current.attributes.empty()) {
      if (report) report->add_parsed();
      objects.push_back(std::move(current));
      current = RpslObject{};
    }
  };
  size_t line_no = 0;
  auto bad_line = [&](const std::string& message) {
    if (policy == util::ParsePolicy::kStrict) {
      throw ParseError("RPSL line " + std::to_string(line_no) + ": " +
                       message);
    }
    if (report) report->add_error(line_no, message);
    ++skipped;
  };
  for (std::string_view line : util::split(text, '\n')) {
    ++line_no;
    // Strip comments.
    size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    if (util::trim(line).empty()) {
      flush();
      continue;
    }
    bool continuation = line.front() == ' ' || line.front() == '\t' ||
                        line.front() == '+';
    if (continuation) {
      if (current.attributes.empty()) {
        bad_line("continuation line before any attribute");
        continue;
      }
      std::string& value = current.attributes.back().second;
      if (!value.empty()) value += ' ';
      value += util::trim(line.front() == '+' ? line.substr(1) : line);
      continue;
    }
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      bad_line("line missing ':': '" + std::string(line) + "'");
      continue;
    }
    std::string attr(util::trim(line.substr(0, colon)));
    if (attr.empty()) {
      bad_line("empty attribute name");
      continue;
    }
    current.attributes.emplace_back(
        std::move(attr), std::string(util::trim(line.substr(colon + 1))));
  }
  flush();
  if (obs::Registry* reg = obs::installed()) {
    obs::Labels feed{{"feed", "irr"}};
    reg->counter("droplens_parse_records_total", feed).inc(objects.size());
    reg->counter("droplens_parse_records_skipped_total", feed).inc(skipped);
  }
  return objects;
}

std::string RouteObject::to_rpsl() const {
  RpslObject obj;
  obj.attributes = {
      {"route", prefix.to_string()},
      {"descr", descr},
      {"origin", origin.to_string()},
      {"mnt-by", maintainer},
      {"org", org_id},
      {"created", created.to_string()},
      {"source", source},
  };
  return obj.to_string();
}

RouteObject RouteObject::from_rpsl(const RpslObject& obj) {
  if (obj.cls() != "route") {
    throw ParseError("RPSL: not a route object (class '" +
                     std::string(obj.cls()) + "')");
  }
  RouteObject out;
  out.prefix = net::Prefix::parse(*obj.get("route"));
  auto origin = obj.get("origin");
  if (!origin || origin->size() < 3 ||
      (origin->substr(0, 2) != "AS" && origin->substr(0, 2) != "as")) {
    throw ParseError("RPSL: route object missing/invalid origin");
  }
  out.origin = net::Asn(
      static_cast<uint32_t>(util::parse_u64(origin->substr(2))));
  if (auto v = obj.get("mnt-by")) out.maintainer = std::string(*v);
  if (auto v = obj.get("org")) out.org_id = std::string(*v);
  if (auto v = obj.get("descr")) out.descr = std::string(*v);
  if (auto v = obj.get("created")) {
    // Accept full RPSL timestamps ("2020-01-01T00:00:00Z") or bare dates.
    out.created = net::Date::parse(v->substr(0, 10));
  }
  if (auto v = obj.get("source")) out.source = std::string(*v);
  return out;
}

}  // namespace droplens::irr
