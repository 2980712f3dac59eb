// DROP population: plans and realizes the ~712 blocklisted prefixes with the
// BGP / IRR / RPKI / registry behaviour the paper measures (§3–§6).
#include <algorithm>
#include <cassert>

#include "sim/generator_impl.hpp"
#include "util/error.hpp"

namespace droplens::sim::detail {

namespace {

using drop::Category;

const LengthDist kHijackLen{{16, 17, 18, 19, 20, 21, 22},
                            {0.03, 0.05, 0.12, 0.25, 0.30, 0.15, 0.10}};
const LengthDist kSnowshoeLen{{20, 21, 22, 23, 24},
                              {0.30, 0.30, 0.20, 0.10, 0.10}};
const LengthDist kSpamOpLen{{20, 21, 22}, {0.4, 0.35, 0.25}};
const LengthDist kHostingLen{{19, 20, 21}, {0.35, 0.40, 0.25}};
const LengthDist kUnallocLen{{16, 17, 18, 19, 20},
                             {0.10, 0.20, 0.30, 0.25, 0.15}};
const LengthDist kNoRecordLen{{21, 22, 23, 24}, {0.30, 0.30, 0.25, 0.15}};

// RIR mix for present-on-DROP prefixes, from Table 1's "Present" column
// counts {11, 37, 169, 9, 172}.
const std::array<double, 5> kPresentRirWeights = {0.028, 0.093, 0.425, 0.023,
                                                  0.432};
// "Removed from DROP" (our NR population) per-RIR counts, Table 1 column 2.
const std::array<int, 5> kRemovedByRir = {7, 19, 40, 37, 83};  // sums to 186

const LengthDist& length_dist(Category c) {
  switch (c) {
    case Category::kHijacked: return kHijackLen;
    case Category::kSnowshoe: return kSnowshoeLen;
    case Category::kKnownSpamOp: return kSpamOpLen;
    case Category::kMaliciousHosting: return kHostingLen;
    case Category::kUnallocated: return kUnallocLen;
    case Category::kNoRecord: return kNoRecordLen;
  }
  return kNoRecordLen;
}

}  // namespace

void Generator::gen_drop_population() {
  std::vector<DropPlan> plans = plan_drop_entries();
  int index = 0;
  for (DropPlan& plan : plans) realize(plan, index++);
}

void Generator::plan_category(std::vector<DropPlan>& plans, Category cat,
                              int count) {
  for (int i = 0; i < count; ++i) {
    DropPlan p;
    p.primary = cat;
    p.rir = pick_rir(kPresentRirWeights);
    p.listed = in_window_date(40);
    plans.push_back(std::move(p));
  }
}

void Generator::plan_incidents(std::vector<DropPlan>& plans) {
  // Two AFRINIC incidents of fraudulent address acquisition (§3.1):
  // ~6% of DROP prefixes but ~49% of the address space, in two clusters.
  int total = cfg_.afrinic_incident_prefixes;
  if (total <= 0) return;
  int count_a = std::max(1, (total * 5 + 4) / 9);  // ~55% of the prefixes
  int count_b = total - count_a;
  uint64_t space_a =
      static_cast<uint64_t>(0.7 * static_cast<double>(cfg_.afrinic_incident_space));
  uint64_t space_b = cfg_.afrinic_incident_space - space_a;
  net::Date listed_a = net::Date::from_ymd(2019, 8, 20);
  net::Date listed_b = net::Date::from_ymd(2021, 2, 10);
  auto make_cluster = [&](int count, uint64_t space, net::Date listed,
                          const std::string& org) {
    uint64_t remaining = space;
    for (int i = 0; i < count; ++i) {
      // Power-of-two share of what's left, largest blocks first.
      uint64_t share = remaining / static_cast<uint64_t>(count - i);
      int len = 24;
      while (len > 10 && (uint64_t{1} << (32 - len)) < share) --len;
      remaining -= std::min(remaining, uint64_t{1} << (32 - len));
      DropPlan p;
      p.primary = Category::kHijacked;
      p.rir = rir::Rir::kAfrinic;
      p.prefix = blocks_.take(rir::Rir::kAfrinic, len);
      p.listed = listed + static_cast<int32_t>(rng_.below(14));
      p.legit_irr = true;  // fraud came with IRR records
      p.irr_org = org;
      p.irr_created = net::Date::from_ymd(2019, 2, 1) +
                      static_cast<int32_t>(rng_.below(60));
      p.irr_removed_after = rng_.chance(0.5);
      p.announce_begin = p.irr_created + static_cast<int32_t>(rng_.below(20));
      plans.push_back(std::move(p));
    }
  };
  make_cluster(count_a, space_a, listed_a, "ORG-INCIDENT-A");
  make_cluster(count_b, space_b, listed_b, "ORG-INCIDENT-B");
}

void Generator::assign_forged_irr(std::vector<DropPlan>& plans) {
  // §5: 57 hijacked prefixes whose SBL-labeled hijacking ASN appears in a
  // RADb route object the attacker registered. 49 of them trace to three
  // ORG-IDs; the serial ORG (15 prefixes) always transits AS50509.
  std::vector<size_t> hijack_idx;
  for (size_t i = 0; i < plans.size(); ++i) {
    // Incidents (legit_irr already set) keep their own IRR story.
    if (plans[i].primary == Category::kHijacked && !plans[i].legit_irr) {
      hijack_idx.push_back(i);
    }
  }
  rng_.shuffle(hijack_idx);
  int want = std::min<int>(cfg_.forged_irr_hijacks,
                           static_cast<int>(hijack_idx.size()));
  const auto& hijackers = asns_.hijacking_asns();
  int late_budget = cfg_.forged_irr_late_records;
  int preexisting_budget = cfg_.forged_irr_preexisting;
  for (int k = 0; k < want; ++k) {
    DropPlan& p = plans[hijack_idx[static_cast<size_t>(k)]];
    p.forged_irr = true;
    p.asn_in_sbl = true;
    // ORG assignment: 15 / 17 / 17 to the three serial ORG-IDs, the rest to
    // one-off ORGs; hijacking ASNs partitioned so 13 distinct ASNs appear.
    size_t asn_slot;
    if (k < 15) {
      p.irr_org = "ORG-SERIAL-1";
      p.transit = net::Asn(50509);  // the paper's recurring transit
      asn_slot = static_cast<size_t>(k % 5);
    } else if (k < 32) {
      p.irr_org = "ORG-SERIAL-2";
      asn_slot = 5 + static_cast<size_t>(k % 4);
    } else if (k < 49) {
      p.irr_org = "ORG-SERIAL-3";
      asn_slot = 9 + static_cast<size_t>(k % 3);
    } else {
      p.irr_org = "ORG-ONEOFF-" + std::to_string(k - 48);
      asn_slot = 12;
    }
    p.origin = hijackers[asn_slot % hijackers.size()];

    // Timing (Fig 3): IRR record first, BGP within a week — except the two
    // prefixes that had been in BGP for over a year before the record.
    p.irr_created = cfg_.window_begin +
                    static_cast<int32_t>(rng_.below(static_cast<uint64_t>(
                        std::max(1, cfg_.window_end - cfg_.window_begin - 330))));
    bool is_late = late_budget > 0 && k >= want - cfg_.forged_irr_late_records;
    if (is_late) {
      --late_budget;
      p.announce_begin = p.irr_created;
      p.irr_created = p.announce_begin + 366 +
                      static_cast<int32_t>(rng_.below(130));
      p.listed = p.irr_created + static_cast<int32_t>(rng_.range(30, 90));
    } else {
      p.announce_begin = p.irr_created + static_cast<int32_t>(rng_.below(7));
      double u = rng_.uniform();
      p.listed = p.irr_created + 7 +
                 static_cast<int32_t>(293.0 * u * u);
    }
    if (p.listed >= cfg_.window_end) p.listed = cfg_.window_end - 1;
    if (preexisting_budget > 0) {
      --preexisting_budget;
      p.irr_preexisting = true;
    }
    p.irr_removed_after = rng_.chance(0.70);
  }
}

std::vector<DropPlan> Generator::plan_drop_entries() {
  std::vector<DropPlan> plans;

  // --- Hijacked (non-incident, non-case-study) ---------------------------
  int hijacked_planned = std::max(0, cfg_.hijacked_regular - 3);
  plan_category(plans, Category::kHijacked, hijacked_planned);
  plan_category(plans, Category::kSnowshoe, cfg_.snowshoe);
  plan_category(plans, Category::kKnownSpamOp, cfg_.known_spam_op);
  plan_category(plans, Category::kMaliciousHosting, cfg_.malicious_hosting);

  // --- Unallocated (Fig 6): per-RIR clusters ------------------------------
  for (rir::Rir r : rir::kAllRirs) {
    int n = cfg_.unallocated_by_rir[static_cast<size_t>(r)];
    for (int i = 0; i < n; ++i) {
      DropPlan p;
      p.primary = Category::kUnallocated;
      p.rir = r;
      p.allocated = false;
      if (r == rir::Rir::kLacnic) {
        // The LACNIC cluster in Fig 6 — it straddles the LACNIC AS0 policy
        // date (2021-06-23), showing the policy did not stop the hijacks.
        p.listed = net::Date::from_ymd(2020, 9, 1) +
                   static_cast<int32_t>(rng_.below(540));
      } else {
        p.listed = in_window_date(40);
      }
      plans.push_back(std::move(p));
    }
  }

  // --- No SBL record = removed from DROP (Table 1 column 2) --------------
  int nr_total = cfg_.no_record - (cfg_.include_case_study ? 1 : 0);
  int nr_made = 0;
  for (rir::Rir r : rir::kAllRirs) {
    int n = kRemovedByRir[static_cast<size_t>(r)];
    for (int i = 0; i < n && nr_made < nr_total; ++i, ++nr_made) {
      DropPlan p;
      p.primary = Category::kNoRecord;
      p.no_record = true;
      p.rir = r;
      p.listed = in_window_date(80);
      plans.push_back(std::move(p));
    }
  }
  while (nr_made < nr_total) {  // top up if the per-RIR counts fell short
    DropPlan p;
    p.primary = Category::kNoRecord;
    p.no_record = true;
    p.rir = rir::Rir::kRipe;
    p.listed = in_window_date(80);
    plans.push_back(std::move(p));
    ++nr_made;
  }

  // --- Unclassifiable records (App. A: two) -------------------------------
  for (int i = 0; i < cfg_.unclassifiable; ++i) {
    DropPlan p;
    p.primary = Category::kSnowshoe;  // behaviourally snowshoe-like
    p.unclassifiable = true;
    p.rir = pick_rir(kPresentRirWeights);
    p.listed = in_window_date(40);
    plans.push_back(std::move(p));
  }

  // --- Second labels & vague texts among snowshoe -------------------------
  {
    std::vector<size_t> ss_idx;
    for (size_t i = 0; i < plans.size(); ++i) {
      if (plans[i].primary == Category::kSnowshoe && !plans[i].unclassifiable) {
        ss_idx.push_back(i);
      }
    }
    rng_.shuffle(ss_idx);
    size_t cursor = 0;
    for (int i = 0; i < cfg_.snowshoe_second_label && cursor < ss_idx.size();
         ++i, ++cursor) {
      if (i < (2 * cfg_.snowshoe_second_label) / 3) {
        plans[ss_idx[cursor]].second_label_ks = true;
      } else {
        plans[ss_idx[cursor]].second_label_hj = true;
      }
    }
    int vague = static_cast<int>(
        cfg_.sbl_no_keyword_rate *
        static_cast<double>(cfg_.total_drop_prefixes() - cfg_.no_record)) -
        cfg_.unclassifiable;
    for (int i = 0; i < vague && cursor < ss_idx.size(); ++i, ++cursor) {
      plans[ss_idx[cursor]].vague_text = true;
    }
  }

  plan_incidents(plans);
  assign_forged_irr(plans);

  // --- Common per-plan attributes -----------------------------------------
  for (DropPlan& p : plans) {
    Category c = p.primary;
    // Address block (incidents already carved theirs).
    if (p.prefix.length() == 0) {
      int len = length_dist(c).sample(rng_);
      if (p.allocated) {
        p.prefix = blocks_.take(p.rir, len);
      } else {
        // Keep squatted blocks well inside what the pool can still give up
        // (small scenarios have tiny pools).
        while (len < 24 &&
               (uint64_t{1} << (32 - len)) * 4 > blocks_.pool_headroom(p.rir)) {
          ++len;
        }
        p.prefix = blocks_.squat_in_pool(p.rir, len);
      }
    }
    p.origin = p.origin.value() ? p.origin : asns_.fresh_operator();
    p.transit = p.transit.value() ? p.transit : asns_.transit(rng_);

    // Announcement behaviour & §4.1 withdrawal.
    double withdraw_rate =
        c == Category::kHijacked ? cfg_.withdraw_within_30d_hijacked
        : c == Category::kUnallocated ? cfg_.withdraw_within_30d_unallocated
                                      : cfg_.withdraw_within_30d_other;
    if (p.legit_irr && p.irr_org.starts_with("ORG-INCIDENT")) {
      withdraw_rate = 0;  // the incident holders kept announcing
    }
    if (p.no_record && rng_.chance(cfg_.removed_signed_unannounced)) {
      p.announced = false;  // §4.2's removed-then-signed-but-never-announced
    }
    if (p.announced && p.announce_begin == net::Date()) {
      p.announce_begin =
          c == Category::kHijacked
              ? p.listed - static_cast<int32_t>(rng_.range(10, 90))
              : pre_window_date(0, 6);
      if (p.announce_begin < cfg_.history_begin) {
        p.announce_begin = cfg_.history_begin;
      }
    }
    p.withdraw_rate = withdraw_rate;
    if (p.announced && !p.no_record && rng_.chance(0.15) &&
        withdraw_rate < 0.5) {
      // Some attackers withdraw later than the 30-day mark (provisional;
      // the quota pass below may override with an early withdrawal).
      p.announce_end = p.listed + static_cast<int32_t>(rng_.range(45, 400));
    }

    // DROP removal (NR population).
    if (p.no_record) {
      p.removed = true;
      p.removed_on = p.listed + static_cast<int32_t>(rng_.range(30, 300));
      if (p.removed_on >= cfg_.window_end) {
        p.removed_on = cfg_.window_end - static_cast<int32_t>(rng_.below(20)) - 1;
      }
      if (p.removed_on <= p.listed) p.removed_on = p.listed + 1;
    }

    // ASN named in the SBL record: all forged-IRR prefixes, plus enough
    // other hijacks to reach ~130, plus ~20% of SS/KS/MH (→ ~190 total).
    if (!p.asn_in_sbl) {
      if (c == Category::kHijacked && !p.legit_irr) {
        // Nearly all non-incident hijack records name the hijacking ASN
        // (§5's 130); the incident records (legit_irr set above) do not.
        p.asn_in_sbl = rng_.chance(0.95);
      } else if (c == Category::kSnowshoe || c == Category::kKnownSpamOp ||
                 c == Category::kMaliciousHosting) {
        p.asn_in_sbl = !p.vague_text && !p.unclassifiable && rng_.chance(0.20);
      }
    }
  }

  apply_quotas(plans);

  // Legit route objects (§5): bring route-object coverage to ~31.7% of
  // prefixes / ~68.8% of space. Incidents already carry objects; select
  // others weighted by size.
  {
    std::vector<size_t> candidates;
    for (size_t i = 0; i < plans.size(); ++i) {
      const DropPlan& p = plans[i];
      if (!p.forged_irr && !p.legit_irr &&
          p.primary != Category::kUnallocated) {
        candidates.push_back(i);
      }
    }
    // Bias toward larger prefixes: route objects covered 68.8% of the DROP
    // space but only 31.7% of its prefixes, so the big blocks were the
    // registered ones.
    std::vector<double> weight(candidates.size());
    for (size_t k = 0; k < candidates.size(); ++k) {
      weight[k] = static_cast<double>(plans[candidates[k]].prefix.size()) *
                  rng_.uniform();
    }
    std::vector<size_t> order(candidates.size());
    for (size_t k = 0; k < order.size(); ++k) order[k] = k;
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return weight[a] > weight[b]; });
    std::vector<size_t> picked;
    for (size_t k : order) picked.push_back(candidates[k]);
    candidates = std::move(picked);
    int want = static_cast<int>(cfg_.legit_route_object_rate *
                                static_cast<double>(candidates.size()));
    for (int k = 0; k < want && k < static_cast<int>(candidates.size()); ++k) {
      DropPlan& p = plans[candidates[static_cast<size_t>(k)]];
      p.legit_irr = true;
      p.irr_org = "ORG-" + std::to_string(1000 + k);
      if (rng_.chance(0.33)) {
        // Registered just before first use — the suspicious pattern.
        p.irr_created = p.listed - static_cast<int32_t>(rng_.range(1, 30));
      } else {
        p.irr_created = pre_window_date(0, 8);
      }
      p.irr_removed_after = rng_.chance(0.28);
    }
    // §5: one route object for an unallocated prefix.
    for (DropPlan& p : plans) {
      if (p.primary == Category::kUnallocated) {
        p.legit_irr = true;
        p.irr_org = "ORG-BOGON-REG";
        p.irr_created = p.listed - static_cast<int32_t>(rng_.range(5, 25));
        break;
      }
    }
  }

  return plans;
}

void Generator::apply_quotas(std::vector<DropPlan>& plans) {
  // Exact-count selection for the §4.1 statistics (withdrawals and RIR
  // deallocations). Bernoulli draws made these drift several sigma across
  // seeds; quotas pin them to the calibrated rates.
  auto pick = [&](std::vector<size_t> eligible, double rate, auto&& apply) {
    rng_.shuffle(eligible);
    size_t quota = static_cast<size_t>(
        rate * static_cast<double>(eligible.size()) + 0.5);
    for (size_t k = 0; k < quota && k < eligible.size(); ++k) {
      apply(plans[eligible[k]], k);
    }
  };

  // Withdrawals within 30 days, per withdrawal-rate group.
  std::vector<double> rates = {cfg_.withdraw_within_30d_hijacked,
                               cfg_.withdraw_within_30d_unallocated,
                               cfg_.withdraw_within_30d_other};
  for (double rate : rates) {
    if (rate <= 0) continue;
    std::vector<size_t> eligible;
    for (size_t i = 0; i < plans.size(); ++i) {
      if (plans[i].announced && plans[i].withdraw_rate == rate) {
        eligible.push_back(i);
      }
    }
    pick(std::move(eligible), rate, [&](DropPlan& p, size_t k) {
      p.withdrawn_30d = true;
      int32_t offset =
          k % 10 == 0 ? -1 : static_cast<int32_t>(rng_.below(30));
      p.announce_end = p.listed + offset;
      if (p.announce_end <= p.announce_begin) {
        p.announce_end = p.announce_begin + 1;
      }
    });
  }

  // MH deallocations (17.4% of malicious-hosting prefixes).
  {
    std::vector<size_t> eligible;
    for (size_t i = 0; i < plans.size(); ++i) {
      if (plans[i].primary == Category::kMaliciousHosting &&
          plans[i].allocated) {
        eligible.push_back(i);
      }
    }
    pick(std::move(eligible), cfg_.mh_deallocated_rate,
         [&](DropPlan& p, size_t) {
           p.deallocated = true;
           p.dealloc_date =
               p.listed + static_cast<int32_t>(rng_.range(60, 500));
           if (p.dealloc_date >= cfg_.window_end) {
             p.dealloc_date = cfg_.window_end - 10;
           }
         });
  }

  // Removed-prefix deallocations (8.8%; half within a week of removal).
  {
    std::vector<size_t> eligible;
    for (size_t i = 0; i < plans.size(); ++i) {
      if (plans[i].removed && plans[i].allocated) eligible.push_back(i);
    }
    pick(std::move(eligible), cfg_.removed_deallocated_rate,
         [&](DropPlan& p, size_t k) {
           p.deallocated = true;
           if (k % 2 == 0) {
             // Spamhaus removed within a week of the RIR deallocating.
             p.dealloc_date =
                 p.removed_on - static_cast<int32_t>(rng_.below(7));
           } else {
             p.dealloc_date =
                 p.removed_on + static_cast<int32_t>(rng_.range(30, 200));
             if (p.dealloc_date >= cfg_.window_end) {
               p.dealloc_date = cfg_.window_end - 5;
             }
           }
           if (p.dealloc_date <= p.listed) p.dealloc_date = p.listed + 1;
         });
  }

  // Post-listing RPKI signing, per RIR (Table 1 columns 2-3). Quota'd for
  // the same reason: the per-RIR denominators are small.
  for (rir::Rir rir : rir::kAllRirs) {
    size_t i_r = static_cast<size_t>(rir);
    std::vector<size_t> removed_set, present_set;
    for (size_t i = 0; i < plans.size(); ++i) {
      const DropPlan& p = plans[i];
      if (p.rir != rir || !p.allocated) continue;
      if (p.primary == Category::kUnallocated) continue;
      if (p.removed) {
        removed_set.push_back(i);
      } else {
        present_set.push_back(i);
      }
    }
    pick(std::move(removed_set), cfg_.removed_signing_rate[i_r],
         [&](DropPlan& p, size_t) {
           p.signs_after = true;
           p.sign_date =
               p.removed_on - 30 +
               static_cast<int32_t>(rng_.below(static_cast<uint64_t>(
                   std::max<int32_t>(31,
                                     cfg_.window_end - p.removed_on + 30))));
           if (p.sign_date <= p.listed) p.sign_date = p.listed + 1;
           if (p.sign_date >= cfg_.window_end) {
             p.sign_date = cfg_.window_end - 1;
           }
           p.sign_same_asn =
               p.announced &&
               rng_.chance(cfg_.removed_signed_same_asn /
                           (1.0 - cfg_.removed_signed_unannounced));
         });
    pick(std::move(present_set), cfg_.present_signing_rate[i_r],
         [&](DropPlan& p, size_t) {
           p.signs_after = true;
           p.sign_date =
               p.listed + 1 +
               static_cast<int32_t>(rng_.below(static_cast<uint64_t>(
                   std::max<int32_t>(2, cfg_.window_end - p.listed - 1))));
           p.sign_same_asn = false;
         });
  }
}

void Generator::realize(DropPlan& plan, int index) {
  const net::Prefix& prefix = plan.prefix;
  net::Date long_ago = pre_window_date(4, 15);
  // The allocation must predate every IRR record of the prefix — otherwise
  // old owner objects would look like registrations of unallocated space
  // (§5 has exactly ONE of those, planted deliberately).
  if (plan.legit_irr || plan.forged_irr) {
    net::Date earliest = plan.irr_created;
    if (plan.irr_preexisting) earliest = earliest - (365 * 14);
    if (long_ago >= earliest) {
      long_ago = earliest - static_cast<int32_t>(rng_.range(30, 700));
    }
    if (long_ago < cfg_.history_begin) long_ago = cfg_.history_begin;
  }

  // Registry. Incident prefixes were genuinely (if fraudulently) allocated
  // to the registering ORG; other legit route objects belong to the actual
  // holder; hijacked prefixes belong to a victim the hijacker is not, and
  // so do prefixes with a hijack second label whose owner left a route
  // object (the IRR block below registers it under the same victim name).
  if (plan.allocated && !w_->registry.allocation_on(prefix, plan.listed)) {
    std::string holder;
    if (plan.irr_org.starts_with("ORG-INCIDENT")) {
      holder = plan.irr_org;
    } else if (plan.primary == drop::Category::kHijacked ||
               (plan.legit_irr && plan.second_label_hj)) {
      holder = "victim-org-" + std::to_string(index);
    } else if (plan.legit_irr) {
      holder = plan.irr_org;
    } else {
      holder = "org-" + std::to_string(index);
    }
    w_->registry.allocate(prefix, plan.rir, holder, long_ago);
  }
  if (plan.deallocated) {
    w_->registry.deallocate(prefix, plan.dealloc_date);
  }

  // BGP.
  if (plan.announced) {
    net::Date end = plan.announce_end;
    announce_simple(prefix, plan.origin, plan.transit, plan.announce_begin,
                    end);
  }
  if (plan.primary == drop::Category::kHijacked && !plan.forged_irr &&
      plan.announced && rng_.chance(0.25)) {
    // The "origin consistent with historic route announcements" hijacks
    // (§1): the victim once announced this prefix with the very origin ASN
    // the hijacker now forges — only the upstream differs. Detection
    // systems keyed on origin changes stay silent (Vervier et al.).
    net::Date old_end = plan.announce_begin - static_cast<int32_t>(
        rng_.range(200, 1500));
    net::Date old_begin = old_end - static_cast<int32_t>(rng_.range(400, 2000));
    if (old_begin < cfg_.history_begin) old_begin = cfg_.history_begin;
    if (old_end > old_begin) {
      net::Asn old_transit = asns_.transit(rng_);
      while (old_transit == plan.transit) old_transit = asns_.transit(rng_);
      announce_simple(prefix, plan.origin, old_transit, old_begin, old_end);
    }
  }

  // IRR.
  if (plan.forged_irr || plan.legit_irr) {
    if (plan.irr_preexisting) {
      // The abandoned owner's own, older record (it would survive an
      // authenticated IRR — the owner really held the prefix).
      irr::RouteObject old_obj;
      old_obj.prefix = prefix;
      old_obj.origin = asns_.fresh_operator();
      old_obj.maintainer = "MAINT-OLDOWNER";
      old_obj.org_id = "victim-org-" + std::to_string(index);
      old_obj.descr = "legacy route object";
      old_obj.created = pre_window_date(6, 14);
      w_->irr.register_object(old_obj);
    }
    irr::RouteObject obj;
    obj.prefix = prefix;
    // Non-forged route objects on hijacked prefixes carry the *old owner's*
    // ASN, not the hijacker's — §5's "no route object or a route object
    // with a different ASN" population. Incidents keep their own origin
    // (the fraud org really did register and announce with it).
    bool owner_object = plan.legit_irr &&
                        (plan.primary == drop::Category::kHijacked ||
                         plan.second_label_hj) &&
                        !plan.irr_org.starts_with("ORG-INCIDENT");
    obj.origin = owner_object ? asns_.fresh_operator() : plan.origin;
    if (owner_object) {
      // A route object the real (now absent) holder left behind.
      plan.irr_org = "victim-org-" + std::to_string(index);
    }
    obj.maintainer = "MAINT-" + plan.irr_org;
    obj.org_id = plan.irr_org;
    obj.descr = plan.forged_irr ? "transit customer route" : "customer route";
    obj.created = plan.irr_created;
    net::Asn registered_origin = obj.origin;
    w_->irr.register_object(std::move(obj));
    if (plan.irr_removed_after) {
      w_->irr.remove_object(prefix, registered_origin,
                            plan.listed + static_cast<int32_t>(
                                rng_.range(3, 28)));
    }
  }

  // DROP + SBL.
  std::string sbl_id;
  if (!plan.no_record) {
    sbl_id = "SBL" + std::to_string(sbl_counter_++);
    w_->sbl.add(drop::SblRecord{sbl_id, prefix, sbl_text(plan, index)});
  }
  w_->drop.add(prefix, plan.listed, sbl_id);
  if (plan.removed) {
    w_->drop.remove(prefix, plan.removed_on);
    w_->truth.removed_from_drop.push_back(prefix);
  }
  if (plan.withdrawn_30d) w_->truth.withdrawn_within_30d.push_back(prefix);
  if (plan.primary == drop::Category::kUnallocated) {
    w_->truth.unallocated_prefixes.push_back(prefix);
  }
  if (plan.forged_irr) w_->truth.forged_irr_prefixes.push_back(prefix);
  if (plan.legit_irr && plan.irr_org.starts_with("ORG-INCIDENT")) {
    w_->truth.incident_prefixes.push_back(prefix);
  }

  // RPKI uptake after listing (Table 1, §4.2).
  if (plan.signs_after) {
    net::Asn roa_asn =
        plan.sign_same_asn ? plan.origin : asns_.fresh_operator();
    w_->roas.publish(
        rpki::Roa(prefix, roa_asn, rpki::production_tal(plan.rir)),
        plan.sign_date);
  }
}

std::string Generator::sbl_text(const DropPlan& plan, int index) const {
  const std::string asn = plan.origin.to_string();
  const std::string cidr = plan.prefix.to_string();
  std::string text;
  if (plan.unclassifiable) {
    return "Suspicious activity observed in this range; investigation "
           "ongoing. Escalated per policy.";
  }
  if (plan.vague_text) {
    return "Spamhaus believes that this IP address range is being used or is "
           "about to be used for the purpose of high volume spam emission.";
  }
  switch (plan.primary) {
    case drop::Category::kHijacked:
      if (plan.forged_irr) {
        text = "Hijacked IP range " + cidr + " announced by stolen " + asn +
               "; route object registered to disguise the theft. Contact "
               "billing@ahostinginc" + std::to_string(index % 7) + ".com";
      } else if (plan.asn_in_sbl) {
        text = "Hijacked netblock " + cidr + ", stolen " + asn +
               ", announced without authorization of the address holder.";
      } else {
        text = "Hijacked netblock " + cidr +
               " obtained by fraud; registry records falsified.";
      }
      break;
    case drop::Category::kSnowshoe:
      if (plan.second_label_hj) {
        text = "Snowshoe IP block on Stolen " + asn +
               " ... james.johnson@networxhosting" +
               std::to_string(index % 5) + ".com";
      } else if (plan.second_label_ks) {
        text = "Register Of Known Spam Operations ... snowshoe range " + cidr;
      } else if (plan.asn_in_sbl) {
        text = "Snowshoe spam range " + cidr + " on " + asn +
               "; dozens of freshly registered domains.";
      } else {
        text = "Snowshoe spam source; wide dispersal of spam senders across " +
               cidr + ".";
      }
      break;
    case drop::Category::kKnownSpamOp:
      text = plan.asn_in_sbl
                 ? "Register Of Known Spam Operations: netblock " + cidr +
                       " under control of spam operation on " + asn + "."
                 : "Register Of Known Spam Operations: " + cidr +
                       " connected with a known spam operation.";
      break;
    case drop::Category::kMaliciousHosting:
      text = plan.asn_in_sbl
                 ? asn + " spammer hosting; ignores all abuse reports."
                 : "Bulletproof spam hosting operation; provider ignores "
                   "complaints for " + cidr + ".";
      break;
    case drop::Category::kUnallocated:
      text = "Unallocated (bogon) netblock " + cidr +
             " announced and used for abuse; no RIR has issued this space.";
      break;
    case drop::Category::kNoRecord:
      break;
  }
  return text;
}

}  // namespace droplens::sim::detail
