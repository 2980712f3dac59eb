// Substrate micro-benchmarks and the DESIGN.md ablations:
//   - PrefixMap (radix trie) covering-lookup vs. a sorted-vector scan
//   - RFC 6811 route-origin validation throughput
//   - IntervalSet accounting vs. a per-/24 bitmap
//   - SBL classifier throughput
//   - full-table search: std::upper_bound vs the Eytzinger index, scalar
//     and batched, at paper scale (1K) through full-table scale (1M/4M)
//
// `--scale-gate` skips the benchmark harness and runs the data-plane
// regression gate instead: best-of-3 timed sweeps over a 1M-segment array,
// exiting 1 if the batched Eytzinger path is not >= 3x the upper_bound
// reference on one core (CI runs it).
//
//   $ ./bench_perf_substrates [--scale-gate] [--benchmark_...]
//
// Any other argument (one google-benchmark does not consume either) prints
// the usage line and exits 2 before a benchmark runs, so a misspelt gate
// flag fails instead of running the suite.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string_view>
#include <vector>

#include "drop/sbl.hpp"
#include "net/cidr_cover.hpp"
#include "net/eytzinger.hpp"
#include "net/interval_set.hpp"
#include "net/prefix_trie.hpp"
#include "rpki/archive.hpp"
#include "rpki/repository_builder.hpp"
#include "rpki/rtr.hpp"
#include "rpki/validator.hpp"
#include "rpki/authority.hpp"
#include "sim/rng.hpp"

using namespace droplens;

namespace {

std::vector<net::Prefix> random_prefixes(size_t n, uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<net::Prefix> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    int len = 12 + static_cast<int>(rng.below(13));  // /12../24
    out.push_back(net::Prefix::containing(
        net::Ipv4(static_cast<uint32_t>(rng.next())), len));
  }
  return out;
}

void BM_TrieCoveringLookup(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<net::Prefix> prefixes = random_prefixes(n, 1);
  net::PrefixMap<int> trie;
  for (size_t i = 0; i < prefixes.size(); ++i) {
    trie.insert_or_assign(prefixes[i], static_cast<int>(i));
  }
  std::vector<net::Prefix> probes = random_prefixes(1024, 2);
  size_t i = 0;
  for (auto _ : state) {
    int sum = 0;
    trie.for_each_covering(probes[i++ % probes.size()],
                           [&](const net::Prefix&, int v) { sum += v; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrieCoveringLookup)->Arg(1000)->Arg(10000)->Arg(100000);

// Ablation: the same covering query answered by scanning a sorted vector.
void BM_SortedVectorCoveringLookup(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<net::Prefix> prefixes = random_prefixes(n, 1);
  std::sort(prefixes.begin(), prefixes.end());
  std::vector<net::Prefix> probes = random_prefixes(1024, 2);
  size_t i = 0;
  for (auto _ : state) {
    const net::Prefix& probe = probes[i++ % probes.size()];
    int hits = 0;
    // Binary search to the insertion point, then walk left while candidates
    // could still cover the probe (classic sorted-CIDR scan).
    auto it = std::upper_bound(prefixes.begin(), prefixes.end(), probe);
    while (it != prefixes.begin()) {
      --it;
      if (it->contains(probe)) ++hits;
      if (it->network().value() < (probe.network().value() & 0xff000000)) {
        break;  // cannot cover from further left than the probe's /8
      }
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SortedVectorCoveringLookup)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RovValidate(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<net::Prefix> prefixes = random_prefixes(n, 3);
  rpki::RoaArchive archive;
  sim::Rng rng(4);
  net::Date d(18000);
  for (const net::Prefix& p : prefixes) {
    archive.publish(
        rpki::Roa(p, net::Asn(static_cast<uint32_t>(1000 + rng.below(5000))),
                  rpki::Tal::kRipe),
        d - 10);
  }
  std::vector<net::Prefix> probes = random_prefixes(1024, 5);
  size_t i = 0;
  for (auto _ : state) {
    rpki::Validity v = archive.validate_route(
        probes[i % probes.size()],
        net::Asn(static_cast<uint32_t>(1000 + (i % 5000))), d);
    benchmark::DoNotOptimize(v);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RovValidate)->Arg(10000)->Arg(100000);

void BM_IntervalSetInsert(benchmark::State& state) {
  std::vector<net::Prefix> prefixes =
      random_prefixes(static_cast<size_t>(state.range(0)), 6);
  for (auto _ : state) {
    net::IntervalSet set;
    for (const net::Prefix& p : prefixes) set.insert(p);
    benchmark::DoNotOptimize(set.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IntervalSetInsert)->Arg(1000)->Arg(10000);

// Ablation: address-space accounting with a per-/24 bitmap instead of
// disjoint intervals.
void BM_BitmapInsert(benchmark::State& state) {
  std::vector<net::Prefix> prefixes =
      random_prefixes(static_cast<size_t>(state.range(0)), 6);
  for (auto _ : state) {
    std::vector<uint64_t> bitmap((uint64_t{1} << 24) / 64);
    for (const net::Prefix& p : prefixes) {
      uint64_t first = p.first() >> 8, last = (p.end() - 1) >> 8;
      for (uint64_t b = first; b <= last; ++b) {
        bitmap[b >> 6] |= uint64_t{1} << (b & 63);
      }
    }
    benchmark::DoNotOptimize(bitmap.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BitmapInsert)->Arg(1000)->Arg(10000);

void BM_IntervalSetIntersection(benchmark::State& state) {
  net::IntervalSet a, b;
  for (const net::Prefix& p : random_prefixes(20000, 7)) a.insert(p);
  for (const net::Prefix& p : random_prefixes(20000, 8)) b.insert(p);
  for (auto _ : state) {
    net::IntervalSet c = net::IntervalSet::set_intersection(a, b);
    benchmark::DoNotOptimize(c.size());
  }
}
BENCHMARK(BM_IntervalSetIntersection);

void BM_CidrCover(benchmark::State& state) {
  net::IntervalSet set;
  for (const net::Prefix& p : random_prefixes(5000, 9)) set.insert(p);
  for (auto _ : state) {
    std::vector<net::Prefix> cover = net::cidr_cover(set);
    benchmark::DoNotOptimize(cover.size());
  }
}
BENCHMARK(BM_CidrCover);

void BM_SblClassifier(benchmark::State& state) {
  drop::Classifier classifier;
  const char* texts[] = {
      "AS204139 spammer hosting",
      "hijacked IP range ... billing@ahostinginc.com",
      "Snowshoe IP block on Stolen AS62927 ... j.j@networxhosting.com",
      "Register Of Known Spam Operations ... snowshoe range",
      "Unallocated (bogon) netblock announced and used for abuse",
      "Spamhaus believes that this IP address range is being used or is "
      "about to be used for the purpose of high volume spam emission.",
  };
  size_t i = 0;
  for (auto _ : state) {
    drop::Classification c = classifier.classify(texts[i++ % 6]);
    benchmark::DoNotOptimize(c.categories);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SblClassifier);

void BM_RtrFullSync(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<net::Prefix> prefixes = random_prefixes(n, 21);
  std::vector<rpki::Vrp> vrps;
  for (size_t i = 0; i < prefixes.size(); ++i) {
    vrps.push_back(rpki::Vrp{prefixes[i], prefixes[i].length(),
                             net::Asn(static_cast<uint32_t>(i + 1))});
  }
  rpki::RtrServer server(1);
  server.update(vrps);
  for (auto _ : state) {
    rpki::RtrClient client;
    client.consume(server.handle(rpki::parse_pdus(client.poll())[0]));
    benchmark::DoNotOptimize(client.table_size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RtrFullSync)->Arg(1000)->Arg(10000);

void BM_ValidatorTreeWalk(benchmark::State& state) {
  // One TA, N delegated CAs with one ROA each.
  size_t n = static_cast<size_t>(state.range(0));
  net::IntervalSet space;
  space.insert(net::Prefix::parse("10.0.0.0/8"));
  net::Date now(19000);
  net::DateRange validity{now - 365, now + 365};
  rpki::CertificateAuthority ta =
      rpki::CertificateAuthority::trust_anchor("TA", 1, space, validity);
  rpki::RpkiRepository repo;
  std::vector<rpki::CertificateAuthority> children;
  for (size_t i = 0; i < n; ++i) {
    net::Prefix block = net::Prefix::containing(
        net::Ipv4(static_cast<uint32_t>((10u << 24) + (i << 12))), 20);
    net::IntervalSet child_space;
    child_space.insert(block);
    children.push_back(ta.delegate("ca" + std::to_string(i), 100 + i,
                                   child_space, validity));
    children.back().issue_roa(
        rpki::Roa(block, net::Asn(static_cast<uint32_t>(i + 1)),
                  rpki::Tal::kRipe),
        validity);
  }
  for (auto& child : children) {
    repo.points.emplace_back(child.name(), child.publish(now));
  }
  repo.points.emplace_back("TA", ta.publish(now));
  std::vector<rpki::TrustAnchorLocator> tals = {ta.tal()};
  for (auto _ : state) {
    rpki::ValidatorOutput out = rpki::run_validator(repo, tals, now);
    benchmark::DoNotOptimize(out.vrps.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ValidatorTreeWalk)->Arg(64)->Arg(512);

// ---------------------------------------------------------------------------
// Full-table search: the flat sorted array every snapshot substrate ends in,
// probed three ways. At 1K segments everything lives in L1 and the layouts
// tie; at 1M+ the sorted array's binary search takes a cache miss per level
// while the Eytzinger descent keeps the hot levels resident and the batched
// variant hides the cold-level misses behind prefetch.

std::vector<uint64_t> segment_begins(size_t n, uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<uint64_t> keys;
  keys.reserve(n);
  uint64_t cursor = uint64_t{1} << 24;
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(cursor);
    cursor += 256 * (1 + rng.below(4));
  }
  return keys;
}

std::vector<uint64_t> segment_probes(const std::vector<uint64_t>& keys,
                                     size_t n, uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<uint64_t> probes;
  probes.reserve(n);
  const uint64_t span = keys.back() + 1024;
  for (size_t i = 0; i < n; ++i) probes.push_back(rng.below(span));
  return probes;
}

void BM_SegmentSearchUpperBound(benchmark::State& state) {
  const std::vector<uint64_t> keys =
      segment_begins(static_cast<size_t>(state.range(0)), 31);
  const std::vector<uint64_t> probes = segment_probes(keys, 4096, 32);
  size_t i = 0;
  for (auto _ : state) {
    auto it = std::upper_bound(keys.begin(), keys.end(),
                               probes[i++ % probes.size()]);
    benchmark::DoNotOptimize(it - keys.begin());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SegmentSearchUpperBound)
    ->Arg(1000)->Arg(1'000'000)->Arg(4'000'000);

void BM_SegmentSearchEytzinger(benchmark::State& state) {
  const std::vector<uint64_t> keys =
      segment_begins(static_cast<size_t>(state.range(0)), 31);
  const std::vector<uint64_t> probes = segment_probes(keys, 4096, 32);
  net::EytzingerIndex index;
  index.build(keys.size(), [&](size_t i) { return keys[i]; });
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.upper_bound(probes[i++ % probes.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SegmentSearchEytzinger)
    ->Arg(1000)->Arg(1'000'000)->Arg(4'000'000);

void BM_SegmentSearchEytzingerBatch(benchmark::State& state) {
  constexpr size_t kBatch = 512;
  const std::vector<uint64_t> keys =
      segment_begins(static_cast<size_t>(state.range(0)), 31);
  const std::vector<uint64_t> probes = segment_probes(keys, 8 * kBatch, 32);
  net::EytzingerIndex index;
  index.build(keys.size(), [&](size_t i) { return keys[i]; });
  std::vector<uint32_t> out(kBatch);
  size_t i = 0;
  for (auto _ : state) {
    const size_t at = (i++ % 8) * kBatch;
    index.upper_bound_batch(
        std::span<const uint64_t>(probes.data() + at, kBatch), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_SegmentSearchEytzingerBatch)
    ->Arg(1000)->Arg(1'000'000)->Arg(4'000'000);

// The CI regression gate (see file comment). Prints both rates so the
// EXPERIMENTS.md table can be refreshed from its output.
int run_scale_gate() {
  constexpr size_t kSegments = 1'000'000;
  constexpr size_t kProbes = 1 << 20;
  constexpr size_t kBatch = 512;
  constexpr double kRequiredSpeedup = 3.0;
  const std::vector<uint64_t> keys = segment_begins(kSegments, 31);
  const std::vector<uint64_t> probes = segment_probes(keys, kProbes, 32);
  net::EytzingerIndex index;
  index.build(keys.size(), [&](size_t i) { return keys[i]; });

  using Clock = std::chrono::steady_clock;
  auto best_of_3 = [&](auto&& sweep) {
    double best = 1e300;
    uint64_t check = 0;
    for (int round = 0; round < 3; ++round) {
      uint64_t sum = 0;
      const auto t0 = Clock::now();
      sweep(sum);
      const auto t1 = Clock::now();
      best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
      if (round == 0) {
        check = sum;
      } else if (sum != check) {
        std::fprintf(stderr, "scale-gate: nondeterministic checksum\n");
        std::exit(1);
      }
    }
    return std::pair<double, uint64_t>(best, check);
  };

  auto [ref_s, ref_sum] = best_of_3([&](uint64_t& sum) {
    for (uint64_t p : probes) {
      sum += static_cast<uint64_t>(
          std::upper_bound(keys.begin(), keys.end(), p) - keys.begin());
    }
  });
  std::vector<uint32_t> out(kBatch);
  auto [fast_s, fast_sum] = best_of_3([&](uint64_t& sum) {
    for (size_t at = 0; at < probes.size(); at += kBatch) {
      index.upper_bound_batch(
          std::span<const uint64_t>(probes.data() + at, kBatch), out.data());
      for (uint32_t r : out) sum += r;
    }
  });
  if (ref_sum != fast_sum) {
    std::fprintf(stderr,
                 "scale-gate: batched answers diverge from upper_bound "
                 "(checksum %llu vs %llu)\n",
                 static_cast<unsigned long long>(fast_sum),
                 static_cast<unsigned long long>(ref_sum));
    return 1;
  }
  const double ref_rate = kProbes / ref_s;
  const double fast_rate = kProbes / fast_s;
  const double speedup = fast_rate / ref_rate;
  std::printf(
      "scale-gate: %zu segments, %zu probes, best of 3\n"
      "  upper_bound        %8.2f Mlookups/s\n"
      "  eytzinger batched  %8.2f Mlookups/s\n"
      "  speedup            %8.2fx (required >= %.1fx)\n",
      kSegments, kProbes, ref_rate / 1e6, fast_rate / 1e6, speedup,
      kRequiredSpeedup);
  if (speedup < kRequiredSpeedup) {
    std::fprintf(stderr, "scale-gate: FAIL — batched speedup regressed\n");
    return 1;
  }
  std::printf("scale-gate: OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Initialize removes the --benchmark_* flags it parsed from argv.
  benchmark::Initialize(&argc, argv);
  bool scale_gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--scale-gate") {
      scale_gate = true;
    } else {
      std::fprintf(stderr,
                   "unknown flag: %s\n"
                   "usage: bench_perf_substrates [--scale-gate] "
                   "[--benchmark_...]\n",
                   argv[i]);
      return 2;
    }
  }
  if (scale_gate) return run_scale_gate();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
