#include "drop/feed.hpp"

#include <algorithm>
#include <map>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace droplens::drop {

std::string write_drop_feed(const DropList& list, net::Date d) {
  std::string out = "; Spamhaus DROP List " + d.to_string() + "\n";
  out += "; Expires: " + (d + 1).to_string() + "\n";
  for (const net::Prefix& p : list.snapshot(d)) {
    out += p.to_string();
    for (const Listing& l : list.listings_of(p)) {
      if (l.listed.contains(d) && !l.sbl_id.empty()) {
        out += " ; " + l.sbl_id;
        break;
      }
    }
    out += '\n';
  }
  return out;
}

std::vector<FeedEntry> parse_drop_feed(std::string_view text,
                                       util::ParsePolicy policy,
                                       util::ParseReport* report) {
  obs::Span span("parse.drop_feed");
  std::vector<FeedEntry> out;
  size_t line_no = 0;
  size_t skipped = 0;
  for (std::string_view line : util::split(text, '\n')) {
    ++line_no;
    line = util::trim(line);
    if (line.empty() || line.front() == ';' || line.front() == '#') continue;
    FeedEntry entry;
    size_t semi = line.find(';');
    std::string_view prefix_part =
        util::trim(semi == std::string_view::npos ? line
                                                  : line.substr(0, semi));
    try {
      entry.prefix = net::Prefix::parse(prefix_part);
    } catch (const ParseError& e) {
      if (policy == util::ParsePolicy::kStrict) {
        throw ParseError("DROP feed line " + std::to_string(line_no) + ": " +
                         e.what());
      }
      if (report) report->add_error(line_no, e.what());
      ++skipped;
      continue;
    }
    if (semi != std::string_view::npos) {
      entry.sbl_id = std::string(util::trim(line.substr(semi + 1)));
    }
    if (report) report->add_parsed();
    out.push_back(std::move(entry));
  }
  if (obs::Registry* reg = obs::installed()) {
    obs::Labels feed{{"feed", "drop"}};
    reg->counter("droplens_parse_records_total", feed).inc(out.size());
    reg->counter("droplens_parse_records_skipped_total", feed).inc(skipped);
  }
  return out;
}

DropList from_daily_feeds(
    const std::vector<std::pair<net::Date, std::vector<FeedEntry>>>& in_days) {
  // Archives deliver snapshots out of order (and occasionally twice);
  // diffing adjacent snapshots only makes sense on the date-sorted sequence.
  // The sort is stable so the later occurrence of a duplicated date wins.
  std::vector<const std::pair<net::Date, std::vector<FeedEntry>>*> days;
  days.reserve(in_days.size());
  for (const auto& day : in_days) days.push_back(&day);
  std::stable_sort(days.begin(), days.end(),
                   [](const auto* a, const auto* b) {
                     return a->first < b->first;
                   });
  auto last_of_date = [&](size_t i) {
    return i + 1 == days.size() || days[i + 1]->first != days[i]->first;
  };
  DropList list;
  std::map<net::Prefix, std::string> live;  // prefix -> sbl id
  size_t day_index = 0;
  for (const auto* day : days) {
    if (!last_of_date(day_index++)) continue;
    const auto& [date, entries] = *day;
    std::map<net::Prefix, std::string> today;
    for (const FeedEntry& e : entries) today[e.prefix] = e.sbl_id;
    // Removals: live yesterday, absent today.
    for (const auto& [prefix, id] : live) {
      if (!today.contains(prefix)) list.remove(prefix, date);
    }
    // Additions: present today, not live yesterday.
    for (const auto& [prefix, id] : today) {
      if (!live.contains(prefix)) list.add(prefix, date, id);
    }
    live = std::move(today);
  }
  return list;
}

}  // namespace droplens::drop
