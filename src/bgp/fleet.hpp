// RouteViews-style collector fleet.
//
// The paper uses BGP announcement data from all 36 RouteViews collectors
// (§3). We model a fleet of collectors, each peering with a number of
// full-table peers. Announcements are recorded as *episodes*: a prefix
// originated with an AS path over a date range. A peer observes an episode
// unless its import policy rejects the prefix on that day — which is how the
// paper's three DROP-filtering peers (§4.1) and the hypothetical AS0-TAL
// filtering peers (§6.2.2) are expressed.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/route.hpp"
#include "net/date.hpp"
#include "net/interval_set.hpp"
#include "net/prefix.hpp"
#include "net/prefix_trie.hpp"

namespace droplens::bgp {

/// A peer's import policy: return true to REJECT (filter) the prefix on that
/// date. Policies are callbacks so the BGP layer stays independent of the
/// DROP / RPKI libraries that implement the actual filter predicates.
using RejectPolicy = std::function<bool(const net::Prefix&, net::Date)>;

struct Peer {
  PeerId id = 0;
  net::Asn asn;
  uint32_t collector = 0;
  bool full_table = true;
  RejectPolicy reject;  // empty: accepts everything
  std::string name;

  bool rejects(const net::Prefix& p, net::Date d) const {
    return reject && reject(p, d);
  }
};

struct Collector {
  uint32_t id = 0;
  std::string name;
  std::vector<PeerId> peers;
};

/// One origination episode of a prefix, as visible fleet-wide.
struct Episode {
  net::DateRange range;
  std::shared_ptr<const AsPath> path;

  net::Asn origin() const { return path->origin(); }
};

class CollectorFleet {
 public:
  CollectorFleet() = default;

  uint32_t add_collector(std::string name);
  PeerId add_peer(uint32_t collector, net::Asn asn, bool full_table = true,
                  RejectPolicy reject = nullptr, std::string name = {});

  size_t collector_count() const { return collectors_.size(); }
  size_t peer_count() const { return peers_.size(); }
  const Peer& peer(PeerId id) const { return peers_.at(id); }
  const std::vector<Peer>& peers() const { return peers_; }
  const std::vector<Collector>& collectors() const { return collectors_; }

  /// Record that `prefix` was announced with `path` over [range.begin,
  /// range.end). Overlapping episodes for the same prefix are allowed (e.g.
  /// MOAS conflicts during a hijack).
  void announce(const net::Prefix& prefix, AsPath path, net::DateRange range);

  /// All episodes for `prefix`, in insertion order. Empty if never announced.
  const std::vector<Episode>& episodes(const net::Prefix& prefix) const;

  /// Episodes for any prefix equal to or more specific than `prefix`.
  std::vector<std::pair<net::Prefix, Episode>> episodes_covered_by(
      const net::Prefix& prefix) const;

  /// True if any episode (for the exact prefix) covers `d`.
  bool announced_on(const net::Prefix& prefix, net::Date d) const;

  /// True if any episode for `prefix` *or a more specific prefix* covers `d`
  /// — the paper's routed/unrouted test for address space.
  bool routed_on(const net::Prefix& prefix, net::Date d) const;

  /// First/last day the exact prefix was announced; nullopt if never.
  std::optional<net::Date> first_announced(const net::Prefix& prefix) const;
  std::optional<net::Date> last_announced(const net::Prefix& prefix) const;

  /// Origins announced for `prefix` on day `d` (normally 0 or 1; >1 during a
  /// MOAS conflict).
  std::vector<net::Asn> origins_on(const net::Prefix& prefix,
                                   net::Date d) const;

  /// Number of full-table peers that observe `prefix` on `d`: announced and
  /// not rejected by the peer's import policy.
  size_t observing_peers(const net::Prefix& prefix, net::Date d) const;
  size_t full_table_peer_count() const;

  /// Whether a specific peer observes `prefix` on `d`.
  bool peer_observes(PeerId id, const net::Prefix& prefix, net::Date d) const;

  /// Materialize the RIB a peer would hold at end of day `d` — used by the
  /// §6.2.2 check (how many routes an AS0 TAL would have filtered) and the
  /// ROV-monitor example.
  std::vector<Route> peer_table(PeerId id, net::Date d) const;

  /// Replay all episodes as a date-ordered update stream (announce at
  /// range.begin, withdraw at range.end) for `peer` — feed for PeerRib.
  std::vector<Update> update_stream(PeerId id) const;

  /// Visit every (prefix, episode) in prefix order, a prefix's episodes in
  /// insertion order — one walk of the trie.
  template <typename Fn>
  void for_each_episode(Fn&& fn) const {
    episodes_.for_each(
        [&](const net::Prefix& p, const std::vector<Episode>& eps) {
          for (const Episode& e : eps) fn(p, e);
        });
  }

  /// All prefixes with at least one episode, in prefix order.
  std::vector<net::Prefix> announced_prefixes() const;

  /// Prefixes with an episode covering `d`, in prefix order.
  std::vector<net::Prefix> announced_prefixes_on(net::Date d) const;

  /// Address space covered by announcements on `d` — the "routed" space of
  /// the Fig 5 accounting.
  net::IntervalSet routed_space(net::Date d) const;

 private:
  std::vector<Collector> collectors_;
  std::vector<Peer> peers_;
  net::PrefixMap<std::vector<Episode>> episodes_;
  static const std::vector<Episode> kNoEpisodes;
};

}  // namespace droplens::bgp
