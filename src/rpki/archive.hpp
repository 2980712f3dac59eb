// Day-indexed ROA archive with RFC 6811 route-origin validation.
//
// Models RIPE's daily RPKI archive (§3): every ROA ever published, with its
// publication/revocation dates, so analyses can validate any announcement
// against the ROA set of any day — under any set of configured TALs.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "net/date.hpp"
#include "net/interval_set.hpp"
#include "net/prefix_trie.hpp"
#include "rpki/roa.hpp"

namespace droplens::rpki {

/// RFC 6811 validation states.
enum class Validity : uint8_t { kValid, kInvalid, kNotFound };

std::string_view to_string(Validity v);

/// Pure validation over an explicit covering-ROA set: kNotFound if the set
/// is empty, kValid if any ROA matches, else kInvalid.
Validity validate(const std::vector<Roa>& covering, const net::Prefix& p,
                  net::Asn origin);

/// One published ROA plus its lifetime in the repository.
struct RoaRecord {
  Roa roa;
  net::DateRange lifetime;  // [published, revoked)

  bool live_on(net::Date d) const { return lifetime.contains(d); }
};

class RoaArchive {
 public:
  RoaArchive() = default;

  /// Publish `roa` on `d`. Returns its record index (stable).
  size_t publish(Roa roa, net::Date d);

  /// Revoke the live ROA equal to `roa` on `d`. Returns false if none live.
  bool revoke(const Roa& roa, net::Date d);

  /// ROAs live on `d` under a configured TAL that cover `p`.
  std::vector<Roa> covering(const net::Prefix& p, net::Date d,
                            TalSet tals = TalSet::defaults()) const;

  /// RFC 6811 validation of (p, origin) against day `d`'s ROA set.
  Validity validate_route(const net::Prefix& p, net::Asn origin, net::Date d,
                          TalSet tals = TalSet::defaults()) const;

  /// True if any live ROA on `d` covers `p` (i.e. `p` is "RPKI-signed").
  /// AS0-TAL ROAs only count if their TAL is in `tals`.
  bool signed_on(const net::Prefix& p, net::Date d,
                 TalSet tals = TalSet::defaults()) const;

  /// First day on which `p` was covered by a live ROA (under `tals`);
  /// nullopt if never. Scans record lifetimes — no day iteration.
  std::optional<net::Date> first_signed(const net::Prefix& p,
                                        TalSet tals = TalSet::defaults()) const;

  /// The ROA records (live and revoked) whose prefix covers or equals `p`.
  std::vector<RoaRecord> records_covering(const net::Prefix& p) const;

  /// All live ROAs on `d` under `tals`.
  std::vector<Roa> live_roas(net::Date d,
                             TalSet tals = TalSet::defaults()) const;

  /// All live records (ROA + lifetime) on `d` under `tals`.
  std::vector<RoaRecord> live_records(net::Date d,
                                      TalSet tals = TalSet::defaults()) const;

  /// Every record ever published (live and revoked), all TALs. The event
  /// replayer lowers these into publish/revoke events; order follows the
  /// prefix trie walk (nondecreasing first address).
  std::vector<RoaRecord> all_records() const;

  /// Visit every record in all_records() order without copying them.
  template <typename Fn>
  void for_each_record(Fn&& fn) const {
    by_prefix_.for_each(
        [&](const net::Prefix&, const std::vector<RoaRecord>& records) {
          for (const RoaRecord& r : records) fn(r);
        });
  }

  /// Address space covered by live ROAs on `d`. `as0_only` restricts to AS0
  /// ROAs; `non_as0_only` to ROAs with a real origin ASN (Fig 5's
  /// "signed, non-AS0" series).
  enum class Filter : uint8_t { kAll, kAs0Only, kNonAs0Only };
  net::IntervalSet signed_space(net::Date d, TalSet tals = TalSet::defaults(),
                                Filter filter = Filter::kAll) const;

  size_t total_published() const { return total_; }

 private:
  net::PrefixMap<std::vector<RoaRecord>> by_prefix_;
  size_t total_ = 0;
};

}  // namespace droplens::rpki
