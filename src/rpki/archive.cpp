#include "rpki/archive.hpp"

namespace droplens::rpki {

std::string_view to_string(Validity v) {
  switch (v) {
    case Validity::kValid: return "valid";
    case Validity::kInvalid: return "invalid";
    case Validity::kNotFound: return "not-found";
  }
  return "?";
}

Validity validate(const std::vector<Roa>& covering, const net::Prefix& p,
                  net::Asn origin) {
  if (covering.empty()) return Validity::kNotFound;
  for (const Roa& roa : covering) {
    if (roa.matches(p, origin)) return Validity::kValid;
  }
  return Validity::kInvalid;
}

size_t RoaArchive::publish(Roa roa, net::Date d) {
  auto& records = by_prefix_[roa.prefix];
  records.push_back(
      RoaRecord{roa, net::DateRange{d, net::DateRange::unbounded()}});
  return total_++;
}

bool RoaArchive::revoke(const Roa& roa, net::Date d) {
  auto* records = by_prefix_.find(roa.prefix);
  if (!records) return false;
  for (RoaRecord& r : *records) {
    if (r.roa == roa && r.live_on(d)) {
      r.lifetime.end = d;
      return true;
    }
  }
  return false;
}

std::vector<Roa> RoaArchive::covering(const net::Prefix& p, net::Date d,
                                      TalSet tals) const {
  std::vector<Roa> out;
  by_prefix_.for_each_covering(
      p, [&](const net::Prefix&, const std::vector<RoaRecord>& records) {
        for (const RoaRecord& r : records) {
          if (r.live_on(d) && tals.has(r.roa.tal)) out.push_back(r.roa);
        }
      });
  return out;
}

Validity RoaArchive::validate_route(const net::Prefix& p, net::Asn origin,
                                    net::Date d, TalSet tals) const {
  return validate(covering(p, d, tals), p, origin);
}

bool RoaArchive::signed_on(const net::Prefix& p, net::Date d,
                           TalSet tals) const {
  bool found = false;
  by_prefix_.for_each_covering(
      p, [&](const net::Prefix&, const std::vector<RoaRecord>& records) {
        if (found) return;
        for (const RoaRecord& r : records) {
          if (r.live_on(d) && tals.has(r.roa.tal)) {
            found = true;
            return;
          }
        }
      });
  return found;
}

std::optional<net::Date> RoaArchive::first_signed(const net::Prefix& p,
                                                  TalSet tals) const {
  std::optional<net::Date> best;
  by_prefix_.for_each_covering(
      p, [&](const net::Prefix&, const std::vector<RoaRecord>& records) {
        for (const RoaRecord& r : records) {
          if (tals.has(r.roa.tal) &&
              (!best || r.lifetime.begin < *best)) {
            best = r.lifetime.begin;
          }
        }
      });
  return best;
}

std::vector<RoaRecord> RoaArchive::records_covering(
    const net::Prefix& p) const {
  std::vector<RoaRecord> out;
  by_prefix_.for_each_covering(
      p, [&](const net::Prefix&, const std::vector<RoaRecord>& records) {
        out.insert(out.end(), records.begin(), records.end());
      });
  return out;
}

std::vector<Roa> RoaArchive::live_roas(net::Date d, TalSet tals) const {
  std::vector<Roa> out;
  by_prefix_.for_each(
      [&](const net::Prefix&, const std::vector<RoaRecord>& records) {
        for (const RoaRecord& r : records) {
          if (r.live_on(d) && tals.has(r.roa.tal)) out.push_back(r.roa);
        }
      });
  return out;
}

std::vector<RoaRecord> RoaArchive::live_records(net::Date d,
                                                TalSet tals) const {
  std::vector<RoaRecord> out;
  by_prefix_.for_each(
      [&](const net::Prefix&, const std::vector<RoaRecord>& records) {
        for (const RoaRecord& r : records) {
          if (r.live_on(d) && tals.has(r.roa.tal)) out.push_back(r);
        }
      });
  return out;
}

std::vector<RoaRecord> RoaArchive::all_records() const {
  std::vector<RoaRecord> out;
  out.reserve(total_);
  for_each_record([&](const RoaRecord& r) { out.push_back(r); });
  return out;
}

net::IntervalSet RoaArchive::signed_space(net::Date d, TalSet tals,
                                          Filter filter) const {
  net::IntervalSet out;
  by_prefix_.for_each(
      [&](const net::Prefix& p, const std::vector<RoaRecord>& records) {
        for (const RoaRecord& r : records) {
          if (!r.live_on(d) || !tals.has(r.roa.tal)) continue;
          if (filter == Filter::kAs0Only && !r.roa.is_as0()) continue;
          if (filter == Filter::kNonAs0Only && r.roa.is_as0()) continue;
          out.insert(p);
          break;
        }
      });
  return out;
}

}  // namespace droplens::rpki
