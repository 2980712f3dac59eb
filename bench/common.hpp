// Shared scaffolding for the per-figure bench binaries: world generation,
// the Study view with its SnapshotCache, and paper-vs-measured row printing.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>

#include "core/drop_index.hpp"
#include "core/snapshot_cache.hpp"
#include "core/study.hpp"
#include "sim/generator.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/text_table.hpp"

namespace droplens::bench {

struct Harness {
  std::unique_ptr<sim::World> world;
  std::unique_ptr<core::SnapshotCache> cache;  // over the world's substrates
  std::unique_ptr<core::Study> study;          // reads `cache`
  core::DropIndex index;

  /// True for the flags make() reads, so a binary's own flag loop can pass
  /// them over and answer any other unknown argument with its usage line.
  static bool reads(const char* arg) {
    return std::strcmp(arg, "--small") == 0 ||
           std::strncmp(arg, "--seed=", 7) == 0;
  }

  /// Reads `--small` and `--seed=N`, and lets through the binary's own
  /// `flags`: each is a whole argument, or, ending in '=', the prefix of one
  /// whose value the binary parses itself. Any other argument, or a
  /// `--seed=` that is not a whole uint64, prints the usage line and exits
  /// 2 before the world is generated.
  static Harness make(int argc, char** argv,
                      std::initializer_list<std::string_view> flags = {}) {
    auto fail = [&](const std::string& why) {
      std::cerr << why << "\nusage: " << argv[0] << " [--small] [--seed=N]";
      for (std::string_view f : flags) {
        std::cerr << " [" << f << (f.ends_with('=') ? "N" : "") << "]";
      }
      std::cerr << "\n";
      std::exit(2);
    };
    auto own = [&](std::string_view arg) {
      for (std::string_view f : flags) {
        if (f.ends_with('=') ? arg.starts_with(f) : arg == f) return true;
      }
      return false;
    };
    bool small = false;
    uint64_t seed = 0;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--small") == 0) {
        small = true;
      } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
        try {
          seed = util::parse_number<uint64_t>(argv[i] + 7);
        } catch (const ParseError& e) {
          fail(std::string(argv[i]) + ": " + e.what());
        }
      } else if (!own(argv[i])) {
        fail(std::string("unknown flag: ") + argv[i]);
      }
    }
    sim::ScenarioConfig config =
        small ? sim::ScenarioConfig::small() : sim::ScenarioConfig{};
    if (seed) config.seed = seed;
    Harness h;
    std::cerr << "[generating " << (small ? "small" : "paper-scale")
              << " world...]\n";
    h.world = sim::generate(config);
    h.cache = std::make_unique<core::SnapshotCache>(
        h.world->registry, h.world->fleet, h.world->roas, h.world->drop,
        &h.world->irr);
    h.study = std::make_unique<core::Study>(core::Study{
        h.world->registry, h.world->fleet, h.world->irr, h.world->roas,
        h.world->drop, h.world->sbl, config.window_begin, config.window_end});
    h.study->snapshots = h.cache.get();
    h.index = core::DropIndex::build(*h.study);
    return h;
  }
};

/// Paper-vs-measured comparison table.
class Comparison {
 public:
  explicit Comparison(std::string title)
      : title_(std::move(title)),
        table_({"quantity", "paper", "measured"}) {}

  void row(const std::string& what, const std::string& paper,
           const std::string& measured) {
    table_.add_row({what, paper, measured});
  }
  void row(const std::string& what, double paper, double measured,
           int digits = 1) {
    row(what, util::fixed(paper, digits), util::fixed(measured, digits));
  }
  void rule() { table_.add_rule(); }

  void print() const {
    std::cout << "\n=== " << title_ << " ===\n";
    table_.print(std::cout);
  }

 private:
  std::string title_;
  util::TextTable table_;
};

}  // namespace droplens::bench
