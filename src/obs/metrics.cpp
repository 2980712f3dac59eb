#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace droplens::obs {

namespace {

std::atomic<Registry*> g_registry{nullptr};

const char* type_name(Registry::Type t) {
  switch (t) {
    case Registry::Type::kCounter:
      return "counter";
    case Registry::Type::kGauge:
      return "gauge";
    case Registry::Type::kHistogram:
      return "histogram";
  }
  return "?";
}

}  // namespace

Registry::Series& Registry::intern(const std::string& name, Type type,
                                   const Labels& labels,
                                   const std::string& help,
                                   const std::vector<uint64_t>* bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = families_.try_emplace(name);
  Family& family = it->second;
  if (inserted) {
    family.type = type;
    family.help = help;
    if (bounds) family.bounds = *bounds;
  } else {
    if (family.type != type) {
      throw std::logic_error("obs: metric '" + name + "' registered as " +
                             type_name(family.type) + ", re-acquired as " +
                             type_name(type));
    }
    if (bounds && family.bounds != *bounds) {
      throw std::logic_error("obs: histogram '" + name +
                             "' re-acquired with different buckets");
    }
    if (family.help.empty() && !help.empty()) family.help = help;
  }
  for (Series& s : family.series) {
    if (s.labels == labels) return s;
  }
  Series& s = family.series.emplace_back();
  s.labels = labels;
  if (type == Type::kHistogram) {
    s.hist = std::make_unique<detail::HistogramCells>(family.bounds);
  }
  return s;
}

Counter Registry::counter(const std::string& name, const Labels& labels,
                          const std::string& help) {
  return Counter(&intern(name, Type::kCounter, labels, help, nullptr).counter);
}

Gauge Registry::gauge(const std::string& name, const Labels& labels,
                      const std::string& help) {
  return Gauge(&intern(name, Type::kGauge, labels, help, nullptr).gauge);
}

Histogram Registry::histogram(const std::string& name,
                              std::vector<uint64_t> bounds,
                              const Labels& labels, const std::string& help) {
  if (bounds.empty() || !std::is_sorted(bounds.begin(), bounds.end())) {
    throw std::logic_error("obs: histogram '" + name +
                           "' needs ascending, non-empty bounds");
  }
  return Histogram(
      intern(name, Type::kHistogram, labels, help, &bounds).hist.get());
}

std::vector<uint64_t> Registry::log2_bounds(size_t n) {
  std::vector<uint64_t> bounds;
  bounds.reserve(n);
  for (size_t i = 1; i <= n; ++i) {
    bounds.push_back(i >= 64 ? ~uint64_t{0} : (uint64_t{1} << i) - 1);
  }
  return bounds;
}

std::vector<uint64_t> Registry::linear_bounds(uint64_t width, size_t n) {
  std::vector<uint64_t> bounds;
  bounds.reserve(n);
  for (size_t i = 1; i <= n; ++i) bounds.push_back(width * i);
  return bounds;
}

std::vector<Registry::FamilySnapshot> Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FamilySnapshot> out;
  out.reserve(families_.size());
  for (const auto& [name, family] : families_) {
    FamilySnapshot f;
    f.name = name;
    f.help = family.help;
    f.type = family.type;
    f.bounds = family.bounds;
    f.series.reserve(family.series.size());
    for (const Series& s : family.series) {
      SeriesSnapshot snap;
      snap.labels = s.labels;
      snap.counter = s.counter.load(std::memory_order_relaxed);
      snap.gauge = s.gauge.load(std::memory_order_relaxed);
      if (s.hist) {
        snap.buckets.reserve(s.hist->bounds.size() + 1);
        for (size_t i = 0; i <= s.hist->bounds.size(); ++i) {
          snap.buckets.push_back(
              s.hist->buckets[i].load(std::memory_order_relaxed));
        }
        snap.sum = s.hist->sum.load(std::memory_order_relaxed);
      }
      f.series.push_back(std::move(snap));
    }
    std::sort(f.series.begin(), f.series.end(),
              [](const SeriesSnapshot& a, const SeriesSnapshot& b) {
                return a.labels < b.labels;
              });
    out.push_back(std::move(f));
  }
  return out;  // families_ is a std::map: already sorted by name
}

void install(Registry* r) { g_registry.store(r, std::memory_order_release); }

Registry* installed() { return g_registry.load(std::memory_order_acquire); }

Registry& installed_or(std::unique_ptr<Registry>& own) {
  if (Registry* r = installed()) return *r;
  if (!own) own = std::make_unique<Registry>();
  return *own;
}

Counter counter(const std::string& name, const Labels& labels,
                const std::string& help) {
  Registry* r = installed();
  return r ? r->counter(name, labels, help) : Counter();
}

Gauge gauge(const std::string& name, const Labels& labels,
            const std::string& help) {
  Registry* r = installed();
  return r ? r->gauge(name, labels, help) : Gauge();
}

Histogram histogram(const std::string& name, std::vector<uint64_t> bounds,
                    const Labels& labels, const std::string& help) {
  Registry* r = installed();
  return r ? r->histogram(name, std::move(bounds), labels, help) : Histogram();
}

}  // namespace droplens::obs
