#include "sim/generator.hpp"

#include <algorithm>

#include "rpki/as0_policy.hpp"
#include "sim/generator_impl.hpp"
#include "util/error.hpp"

namespace droplens::sim {

std::unique_ptr<World> generate(const ScenarioConfig& config) {
  return detail::Generator(config).run();
}

namespace detail {

// ---------------------------------------------------------------------------
// BlockAllocator

namespace {

// Curated /8 lists per RIR, loosely following the IANA IPv4 map. The
// hardcoded case-study blocks (132/8, 187/8, 191/8, 200/8 LACNIC; 45/8,
// 47/8, 48/8, 52/8) are deliberately absent — the generator administers
// those explicitly.
const std::vector<uint32_t> kAfrinicBases = {41, 102, 154, 196, 197};
const std::vector<uint32_t> kApnicBases = {
    1,   14,  27,  36,  39,  42,  43,  49,  58,  59,  60,  61,  101, 103,
    106, 110, 111, 112, 113, 114, 115, 116, 117, 118, 119, 120, 121, 122,
    123, 124, 125, 126, 133, 150, 153, 163, 171, 175, 180, 182, 183, 202,
    203, 210, 211, 218, 219, 220, 221, 222};
const std::vector<uint32_t> kArinBases = {
    3,   4,   6,   7,   8,   9,   11,  12,  13,  15,  16,  17,  18,  19,
    20,  21,  22,  26,  28,  29,  30,  32,  33,  34,  35,
    44,  50,  64,  65,  66,  67,  68,  69,  70,  71,  72,  73,  74,
    75,  76,  96,  97,  98,  99,  100, 104, 107, 108, 128, 129, 130, 131,
    134, 135, 136, 137, 138, 139, 140, 142, 143, 144, 146, 147, 148, 149,
    152, 155, 156, 157, 158, 159, 160, 161, 162, 164, 165, 166, 167, 168,
    169, 170, 172, 173, 174, 184, 192, 198, 199, 204, 205, 206, 207, 208,
    209, 214, 215, 216};
const std::vector<uint32_t> kLacnicBases = {177, 179, 181, 189, 190,
                                            201, 24,  38,  40,  63};
const std::vector<uint32_t> kRipeBases = {
    2,  5,  25, 31, 37, 46, 51, 57,  62,  77,  78,  79,  80,  81,
    82, 83, 84, 85, 86, 87, 88,  89,  90,  91,  92,  93,  94,  95,
    109, 141, 145, 151, 176, 178, 185, 193, 194, 195, 212, 213, 217};
// Dedicated pool /8s (free-pool space; never handed out by take()).
const std::array<uint32_t, 5> kPoolBases = {105, 223, 23, 186, 188};

size_t idx(rir::Rir r) { return static_cast<size_t>(r); }

const std::vector<uint32_t>& bases_for(rir::Rir r) {
  switch (r) {
    case rir::Rir::kAfrinic: return kAfrinicBases;
    case rir::Rir::kApnic: return kApnicBases;
    case rir::Rir::kArin: return kArinBases;
    case rir::Rir::kLacnic: return kLacnicBases;
    case rir::Rir::kRipe: return kRipeBases;
  }
  return kArinBases;
}

}  // namespace

BlockAllocator::BlockAllocator(rir::Registry& registry) : registry_(registry) {
  for (rir::Rir r : rir::kAllRirs) {
    Cursor& cur = general_[idx(r)];
    cur.bases = bases_for(r);
    cur.next = uint64_t{cur.bases[0]} << 24;
  }
}

uint64_t BlockAllocator::grab(Cursor& cur, uint64_t size) {
  while (true) {
    uint64_t base = uint64_t{cur.bases[cur.base_idx]} << 24;
    uint64_t aligned = (cur.next + size - 1) / size * size;
    if (aligned + size <= base + (uint64_t{1} << 24)) {
      cur.next = aligned + size;
      return aligned;
    }
    if (++cur.base_idx >= cur.bases.size()) {
      throw InvariantError(
          "BlockAllocator: RIR space exhausted (cursor at " +
          net::Ipv4(static_cast<uint32_t>(cur.next)).to_string() + ")");
    }
    cur.next = uint64_t{cur.bases[cur.base_idx]} << 24;
  }
}

net::Prefix BlockAllocator::carve(Cursor& cur, int len) {
  uint64_t size = uint64_t{1} << (32 - len);
  if (len <= 16) {
    return net::Prefix(net::Ipv4(static_cast<uint32_t>(grab(cur, size))), len);
  }
  // Small blocks come from per-length lanes over /16 granules.
  Cursor::Lane& lane = cur.lanes[static_cast<size_t>(len)];
  if (lane.next + size > lane.end) {
    lane.next = grab(cur, uint64_t{1} << 16);
    lane.end = lane.next + (uint64_t{1} << 16);
  }
  uint64_t at = lane.next;
  lane.next += size;
  return net::Prefix(net::Ipv4(static_cast<uint32_t>(at)), len);
}

net::Prefix BlockAllocator::take(rir::Rir rir, int len) {
  net::Prefix p = carve(general_[idx(rir)], len);
  registry_.administer(rir, p);
  return p;
}

void BlockAllocator::setup_pool(rir::Rir rir, uint64_t addresses) {
  Pool& pool = pools_[idx(rir)];
  pool.base = uint64_t{kPoolBases[idx(rir)]} << 24;
  pool.top = pool.base + addresses;
  pool.drain_next = pool.base;
  pool.squat_next = pool.top;
  for (const net::Prefix& p : net::cidr_cover(pool.base, pool.top)) {
    registry_.administer(rir, p);
  }
}

net::Prefix BlockAllocator::take_from_pool(rir::Rir rir, int len) {
  Pool& pool = pools_[idx(rir)];
  uint64_t size = uint64_t{1} << (32 - len);
  uint64_t aligned = (pool.drain_next + size - 1) / size * size;
  if (aligned + size > pool.squat_next) {
    throw InvariantError("BlockAllocator: pool exhausted");
  }
  pool.drain_next = aligned + size;
  return net::Prefix(net::Ipv4(static_cast<uint32_t>(aligned)), len);
}

uint64_t BlockAllocator::pool_headroom(rir::Rir rir) const {
  const Pool& pool = pools_[idx(rir)];
  return pool.squat_next > pool.drain_next
             ? pool.squat_next - pool.drain_next
             : 0;
}

net::Prefix BlockAllocator::squat_in_pool(rir::Rir rir, int len) {
  Pool& pool = pools_[idx(rir)];
  uint64_t size = uint64_t{1} << (32 - len);
  uint64_t start = (pool.squat_next - size) / size * size;
  if (start < pool.drain_next) {
    throw InvariantError("BlockAllocator: pool exhausted (squat)");
  }
  pool.squat_next = start;
  return net::Prefix(net::Ipv4(static_cast<uint32_t>(start)), len);
}

// ---------------------------------------------------------------------------
// AsnPlan

AsnPlan::AsnPlan(Rng& rng) {
  transits_.reserve(40);
  for (int i = 0; i < 40; ++i) {
    transits_.emplace_back(static_cast<uint32_t>(2000 + i));
  }
  (void)rng;
}

void AsnPlan::set_hijacker_count(int n) {
  hijackers_.clear();
  for (int i = 0; i < n; ++i) {
    hijackers_.emplace_back(static_cast<uint32_t>(61000 + 7 * i));
  }
}

// ---------------------------------------------------------------------------
// Generator

Generator::Generator(const ScenarioConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed), w_(std::make_unique<World>()),
      blocks_(w_->registry), asns_(rng_) {
  w_->config = cfg;
  asns_.set_hijacker_count(cfg.hijacking_asn_count);
}

std::unique_ptr<World> Generator::run() {
  setup_fleet();
  setup_pools();
  gen_presigned();
  gen_mega_holders();
  gen_background_unsigned();
  gen_pool_drain();
  gen_drop_population();
  if (cfg_.include_case_study) {
    gen_case_study();
    gen_operator_as0_case();
  }
  gen_attacker_controlled_roas();
  gen_bogons();
  run_as0_policies();
  return std::move(w_);
}

net::Date Generator::pre_window_date(int min_years_back, int max_years_back) {
  int back = static_cast<int>(
      rng_.range(365L * min_years_back, 365L * max_years_back));
  net::Date d = cfg_.window_begin - back;
  return d < cfg_.history_begin ? cfg_.history_begin : d;
}

net::Date Generator::in_window_date(int margin_end) {
  int32_t span = cfg_.window_end - cfg_.window_begin - margin_end;
  if (span < 1) span = 1;
  return cfg_.window_begin + static_cast<int32_t>(rng_.below(span));
}

rir::Rir Generator::pick_rir(const std::array<double, 5>& weights) {
  std::vector<double> w(weights.begin(), weights.end());
  return static_cast<rir::Rir>(rng_.weighted(w));
}

void Generator::announce_simple(const net::Prefix& p, net::Asn origin,
                                net::Asn transit, net::Date begin,
                                net::Date end) {
  w_->fleet.announce(p, bgp::AsPath{transit, origin},
                     net::DateRange{begin, end});
}

void Generator::setup_fleet() {
  for (int c = 0; c < cfg_.collectors; ++c) {
    w_->fleet.add_collector("route-views" + std::to_string(c));
  }
  const drop::DropList* drop_list = &w_->drop;
  for (int i = 0; i < cfg_.full_table_peers; ++i) {
    uint32_t collector = static_cast<uint32_t>(i % cfg_.collectors);
    net::Asn asn = asns_.fresh_operator();
    bgp::RejectPolicy reject = nullptr;
    bool filters = i < cfg_.drop_filtering_peers;
    if (filters) {
      // §4.1: three peers whose operators filter DROP-listed prefixes.
      reject = [drop_list](const net::Prefix& p, net::Date d) {
        return drop_list->covered_on(p, d);
      };
    }
    bgp::PeerId id = w_->fleet.add_peer(collector, asn, /*full_table=*/true,
                                        std::move(reject),
                                        "peer" + std::to_string(i));
    if (filters) w_->truth.drop_filtering_peers.push_back(id);
  }
}

void Generator::setup_pools() {
  for (rir::Rir r : rir::kAllRirs) {
    blocks_.setup_pool(r, cfg_.free_pool_start[static_cast<size_t>(r)]);
  }
}

uint64_t Generator::background_prefix(rir::Rir rir, int len, bool presign,
                                      bool withdraw_mid_window) {
  net::Prefix p = blocks_.take(rir, len);
  net::Date allocated = pre_window_date(1, 15);
  w_->registry.allocate(p, rir, "org-" + std::to_string(p.network().value()),
                        allocated);
  net::Asn origin = asns_.fresh_operator();
  net::Date announce_begin = allocated + static_cast<int32_t>(rng_.below(90));
  net::Date announce_end = net::DateRange::unbounded();
  if (withdraw_mid_window) {
    announce_end = in_window_date(30) + 15;
  }
  net::Asn transit = asns_.transit(rng_);
  announce_simple(p, origin, transit, announce_begin, announce_end);
  if (presign) {
    net::Date signed_on = announce_begin + static_cast<int32_t>(rng_.below(365));
    if (signed_on >= cfg_.window_begin) signed_on = cfg_.window_begin - 1;
    int max_length = maxlength_for(p, origin, transit, announce_begin,
                                   announce_end, /*may_cover_subs=*/true);
    w_->roas.publish(
        rpki::Roa(p, origin, rpki::production_tal(rir), max_length),
        signed_on);
  }
  return p.size();
}

int Generator::maxlength_for(const net::Prefix& p, net::Asn origin,
                             net::Asn transit, net::Date begin, net::Date end,
                             bool may_cover_subs) {
  // §2.3 / Gilad et al.: a slice of operator ROAs carry maxLength. Most of
  // those are vulnerable to forged-origin sub-prefix hijacks because the
  // owner does not announce every covered more-specific; the protected
  // minority announce all their /maxLength sub-prefixes (modeled only for
  // the pre-signed population so the Table 1 denominators stay clean —
  // 0.34 here combines with the in-window signers to land at the ~84%
  // overall vulnerable rate the CoNEXT'17 study measured).
  if (p.length() > 22 || !rng_.chance(cfg_.maxlength_roa_rate)) return 0;
  bool vulnerable = !may_cover_subs || rng_.chance(0.34) ||
                    cfg_.maxlength_vulnerable_rate >= 0.999;
  if (vulnerable) {
    return std::min(24, p.length() + static_cast<int>(rng_.range(2, 6)));
  }
  int max_length = p.length() + 1;
  for (int b = 0; b < 2; ++b) {
    announce_simple(p.child(b), origin, transit, begin, end);
  }
  return max_length;
}

void Generator::gen_presigned() {
  // Signed-and-routed space at window start (Fig 5's 49.1 /8s, less the
  // signed-unrouted organizations), plus signed space that goes unrouted
  // during the window.
  const LengthDist dist{{14, 15, 16, 17, 18, 19, 20},
                        {0.05, 0.10, 0.25, 0.20, 0.20, 0.12, 0.08}};
  // Weighted so no RIR's curated /8 list is over-subscribed once the
  // unsigned background population (Table 1 counts) is added on top.
  const std::array<double, 5> rir_weights = {0.03, 0.33, 0.47, 0.02, 0.15};
  uint64_t target =
      static_cast<uint64_t>(cfg_.presigned_space_slash8 * (1 << 24));
  uint64_t made = 0;
  size_t count = 0;
  while (made < target) {
    made += background_prefix(pick_rir(rir_weights), dist.sample(rng_),
                              /*presign=*/true, /*withdraw=*/false);
    ++count;
  }
  // Signed space that becomes unrouted mid-window (Fig 5's growing
  // signed-unrouted series beyond the named organizations).
  uint64_t unrouted_target =
      static_cast<uint64_t>(cfg_.signed_goes_unrouted_slash8 * (1 << 24));
  made = 0;
  while (made < unrouted_target) {
    made += background_prefix(pick_rir(rir_weights), dist.sample(rng_),
                              /*presign=*/true, /*withdraw=*/true);
    ++count;
  }
  w_->truth.presigned_prefixes = count;
}

void Generator::gen_mega_holders() {
  net::Date long_ago = net::Date::from_ymd(2005, 6, 1);

  // Prudential (§6.2.1): one unrouted /8-equivalent, ARIN legacy, signed
  // before the window, never announced.
  {
    uint64_t size = static_cast<uint64_t>(cfg_.prudential_slash8 * (1 << 24));
    net::Prefix p = net::cidr_cover(uint64_t{48} << 24,
                                    (uint64_t{48} << 24) + size)[0];
    w_->registry.administer(rir::Rir::kArin, p);
    w_->registry.allocate(p, rir::Rir::kArin, "Prudential Insurance",
                          long_ago, "US");
    w_->roas.publish(rpki::Roa(p, net::Asn(100), rpki::Tal::kArin),
                     net::Date::from_ymd(2018, 3, 1));
  }
  // Alibaba (§6.2.1): 0.64 /8s, APNIC, signed pre-window, unrouted.
  {
    uint64_t base = uint64_t{47} << 24;
    uint64_t size = static_cast<uint64_t>(cfg_.alibaba_slash8 * (1 << 24));
    for (const net::Prefix& p : net::cidr_cover(base, base + size)) {
      w_->registry.administer(rir::Rir::kApnic, p);
      w_->registry.allocate(p, rir::Rir::kApnic, "Alibaba", long_ago, "CN");
      w_->roas.publish(rpki::Roa(p, net::Asn(134963), rpki::Tal::kApnic),
                       net::Date::from_ymd(2019, 1, 15));
    }
  }
  // Amazon (§6.2.1 and the labeled event in Fig 5): signs routed + unrouted
  // space on one day in September 2020.
  {
    uint64_t base = uint64_t{52} << 24;
    uint64_t routed =
        static_cast<uint64_t>(cfg_.amazon_routed_slash8 * (1 << 24));
    uint64_t unrouted =
        static_cast<uint64_t>(cfg_.amazon_unrouted_slash8 * (1 << 24));
    net::Asn amazon_asn(16509);
    for (const net::Prefix& p : net::cidr_cover(base, base + routed)) {
      w_->registry.administer(rir::Rir::kArin, p);
      w_->registry.allocate(p, rir::Rir::kArin, "Amazon", long_ago, "US");
      announce_simple(p, amazon_asn, asns_.transit(rng_),
                      net::Date::from_ymd(2012, 1, 1),
                      net::DateRange::unbounded());
      w_->roas.publish(rpki::Roa(p, amazon_asn, rpki::Tal::kArin),
                       cfg_.amazon_roa_date);
    }
    for (const net::Prefix& p :
         net::cidr_cover(base + routed, base + routed + unrouted)) {
      w_->registry.administer(rir::Rir::kArin, p);
      w_->registry.allocate(p, rir::Rir::kArin, "Amazon", long_ago, "US");
      w_->roas.publish(rpki::Roa(p, amazon_asn, rpki::Tal::kArin),
                       cfg_.amazon_roa_date);
    }
  }
  // Allocated, unrouted, never signed (Fig 5: 29.2 /8s at start, ARIN-heavy
  // per §6.1's 60.8%). Modeled as a handful of large legacy holders.
  {
    uint64_t total = static_cast<uint64_t>(
        cfg_.unrouted_unsigned_start_slash8 * (1 << 24));
    uint64_t arin_part = static_cast<uint64_t>(
        static_cast<double>(total) * cfg_.unrouted_unsigned_arin_share);
    struct Part { rir::Rir rir; double share; const char* holder; };
    const Part rest[] = {
        {rir::Rir::kAfrinic, 0.08, "Legacy-AF"},
        {rir::Rir::kApnic, 0.62, "Legacy-AP"},
        {rir::Rir::kLacnic, 0.10, "Legacy-LA"},
        {rir::Rir::kRipe, 0.20, "Legacy-EU"},
    };
    auto plant = [&](rir::Rir r, uint64_t amount, const std::string& holder) {
      while (amount > 0) {
        int len = amount >= (uint64_t{1} << 24) ? 8 : 12;
        if (amount < (uint64_t{1} << 20)) len = 16;
        net::Prefix p = blocks_.take(r, len);
        w_->registry.allocate(p, r, holder, long_ago);
        amount = amount > p.size() ? amount - p.size() : 0;
      }
    };
    plant(rir::Rir::kArin, arin_part, "US-DoD-Legacy");
    for (const Part& part : rest) {
      plant(part.rir,
            static_cast<uint64_t>(
                static_cast<double>(total - arin_part) * part.share),
            part.holder);
    }
  }
}

void Generator::gen_background_unsigned() {
  // Table 1 column 1: the unsigned routed population per RIR, which signs
  // at the base rate during the window. A slice of it withdraws mid-window
  // without signing (the unrouted-unsigned growth in Fig 5).
  const LengthDist dist{{17, 18, 19, 20, 21, 22},
                        {0.03, 0.09, 0.35, 0.29, 0.13, 0.11}};
  uint64_t withdraw_budget = static_cast<uint64_t>(
      cfg_.unrouted_unsigned_growth_slash8 * (1 << 24));
  size_t count = 0;
  for (rir::Rir r : rir::kAllRirs) {
    size_t i_r = static_cast<size_t>(r);
    int n = cfg_.unsigned_background[i_r];
    double sign_rate = cfg_.base_signing_rate[i_r];
    for (int i = 0; i < n; ++i) {
      int len = dist.sample(rng_);
      net::Prefix p = blocks_.take(r, len);
      net::Date allocated = pre_window_date(1, 15);
      w_->registry.allocate(
          p, r, "org-" + std::to_string(p.network().value()), allocated);
      net::Asn origin = asns_.fresh_operator();
      bool withdraws = false;
      if (withdraw_budget > 0 && rng_.chance(0.05)) {
        withdraws = true;
        withdraw_budget =
            withdraw_budget > p.size() ? withdraw_budget - p.size() : 0;
      }
      net::Date end = withdraws ? in_window_date(30)
                                : net::DateRange::unbounded();
      announce_simple(p, origin, asns_.transit(rng_),
                      allocated + static_cast<int32_t>(rng_.below(90)), end);
      if (!withdraws && rng_.chance(sign_rate)) {
        int max_length =
            maxlength_for(p, origin, net::Asn(), net::Date(), net::Date(),
                          /*may_cover_subs=*/false);
        w_->roas.publish(
            rpki::Roa(p, origin, rpki::production_tal(r), max_length),
            in_window_date());
      }
      ++count;
    }
  }
  w_->truth.background_unsigned_prefixes = count;
}

void Generator::gen_pool_drain() {
  // RIRs keep allocating from their pools during the window (Fig 7's
  // downward slopes). Blocks are /20s handed out at a steady monthly rate.
  for (rir::Rir r : rir::kAllRirs) {
    size_t i_r = static_cast<size_t>(r);
    uint64_t drain = static_cast<uint64_t>(
        static_cast<double>(cfg_.free_pool_start[i_r]) * cfg_.pool_drain[i_r]);
    int months = (cfg_.window_end - cfg_.window_begin) / 30;
    uint64_t per_month = drain / static_cast<uint64_t>(months);
    // Block size adapts to the drain rate so even tiny (test-scale) pools
    // shrink visibly: prefer /20s, fall back to smaller blocks.
    int len = 20;
    while (len < 24 && (uint64_t{1} << (32 - len)) > per_month) ++len;
    uint64_t block = uint64_t{1} << (32 - len);
    uint64_t backlog = 0;
    for (int m = 0; m < months; ++m) {
      net::Date when = cfg_.window_begin + m * 30 +
                       static_cast<int32_t>(rng_.below(28));
      backlog += per_month;
      while (backlog >= block) {
        backlog -= block;
        net::Prefix p = blocks_.take_from_pool(r, len);
        w_->registry.allocate(
            p, r, "neworg-" + std::to_string(p.network().value()), when);
        announce_simple(p, asns_.fresh_operator(), asns_.transit(rng_),
                        when + static_cast<int32_t>(rng_.below(30)),
                        net::DateRange::unbounded());
      }
    }
  }
}

void Generator::gen_bogons() {
  // §6.2.2: announced-but-unallocated prefixes alive at the end of the
  // window, not on DROP — the ~30 routes per peer an AS0 TAL would reject.
  const std::array<double, 5> weights = {0.2, 0.35, 0.05, 0.35, 0.05};
  for (int i = 0; i < cfg_.background_bogons; ++i) {
    rir::Rir r = pick_rir(weights);
    net::Prefix p = blocks_.squat_in_pool(r, 22);
    net::Date begin = in_window_date(60);
    announce_simple(p, asns_.fresh_operator(), asns_.transit(rng_), begin,
                    net::DateRange::unbounded());
    w_->truth.background_bogons.push_back(p);
  }
}

void Generator::run_as0_policies() {
  // APNIC and LACNIC sync AS0 ROAs against their free pools monthly from
  // their policy dates (§2.3.1).
  std::vector<net::Date> schedule;
  for (net::Date d = cfg_.window_begin; d < cfg_.window_end; d += 30) {
    schedule.push_back(d);
  }
  schedule.push_back(cfg_.window_end);
  rpki::As0PolicyEngine(w_->registry, w_->roas).sync_schedule(schedule);
}

}  // namespace detail
}  // namespace droplens::sim
