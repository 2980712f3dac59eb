// Protocol robustness: the service must answer hostile bytes with an error
// frame — never throw out of serve(), never crash, never allocate anything
// a 4-byte length field promised but the wire didn't deliver. Modeled on
// test_parser_fuzz.cpp: deterministic seeds, ParseError-or-success contract
// for the decoders, and mutation of valid frames (truncation, bit flips,
// declared-count vs actual-bytes mismatches).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/drop_index.hpp"
#include "core/snapshot_cache.hpp"
#include "sim/rng.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/snapshot.hpp"
#include "svc/snapshot_store.hpp"
#include "util/error.hpp"

namespace droplens {
namespace {

// An empty world is enough: every decode path runs before any lookup.
struct EmptyWorld {
  rir::Registry registry;
  bgp::CollectorFleet fleet;
  irr::Database irr;
  rpki::RoaArchive roas;
  drop::DropList drop;
  drop::SblDatabase sbl;
};

const net::Date kDate = net::Date(18000);

std::shared_ptr<const svc::Snapshot> empty_snapshot() {
  static EmptyWorld* world = new EmptyWorld;
  core::SnapshotCache cache(world->registry, world->fleet, world->roas,
                            world->drop, &world->irr);
  core::Study study{world->registry, world->fleet, world->irr,
                    world->roas,     world->drop,  world->sbl,
                    kDate,           kDate + 1};
  study.snapshots = &cache;
  core::DropIndex index = core::DropIndex::build(study);
  return svc::compile_snapshot(study, index, kDate, 1);
}

std::vector<svc::Query> random_batch(sim::Rng& rng, size_t max_queries) {
  std::vector<svc::Query> batch(rng.below(max_queries + 1));
  for (svc::Query& q : batch) {
    q.date = net::Date(static_cast<int32_t>(rng.below(40000)));
    q.prefix = net::Prefix::containing(
        net::Ipv4(static_cast<uint32_t>(rng.below(uint64_t{1} << 32))),
        static_cast<int>(rng.below(33)));
    q.fields = static_cast<uint8_t>(rng.below(256));
  }
  return batch;
}

/// serve() must return a decodable frame for ANY input and never throw.
void assert_served(svc::Server& server, const std::string& input) {
  std::string response;
  try {
    response = server.serve(input);
  } catch (const std::exception& e) {
    FAIL() << "serve() threw: " << e.what();
  }
  ASSERT_EQ(svc::frame_size(response), response.size());
  (void)svc::decode_header(response);
}

TEST(ServiceFuzz, FrameSizeOnRandomBytesNeverMisbehaves) {
  sim::Rng rng(101);
  for (int round = 0; round < 4000; ++round) {
    size_t len = rng.below(64);
    std::string bytes(len, '\0');
    for (char& c : bytes) c = static_cast<char>(rng.below(256));
    try {
      size_t n = svc::frame_size(bytes);
      EXPECT_TRUE(n == 0 || n <= svc::kHeaderSize + svc::kMaxPayload);
    } catch (const ParseError&) {
      // the transport's cue to cut the connection
    } catch (const std::exception& e) {
      FAIL() << "non-ParseError exception: " << e.what();
    }
  }
}

TEST(ServiceFuzz, ServeSurvivesRandomBytes) {
  svc::SnapshotStore history(svc::SnapshotStore::Config{});
  svc::Server server(history);
  server.publish(empty_snapshot());
  sim::Rng rng(102);
  for (int round = 0; round < 2000; ++round) {
    size_t len = rng.below(200);
    std::string bytes(len, '\0');
    for (char& c : bytes) c = static_cast<char>(rng.below(256));
    assert_served(server, bytes);
  }
  EXPECT_GT(server.stats().malformed, 0u);
}

TEST(ServiceFuzz, TruncatedFramesAreMalformedNotFatal) {
  svc::SnapshotStore history(svc::SnapshotStore::Config{});
  svc::Server server(history);
  server.publish(empty_snapshot());
  sim::Rng rng(103);
  for (int round = 0; round < 400; ++round) {
    std::string frame = svc::encode_query_request(random_batch(rng, 40));
    // Every strictly-shorter head of a valid frame.
    size_t cut = rng.below(frame.size());
    assert_served(server, frame.substr(0, cut));
  }
  svc::ServerStats stats = server.stats();
  EXPECT_EQ(stats.malformed, stats.requests);  // nothing truncated parses
}

TEST(ServiceFuzz, BitFlippedFramesNeverEscapeAsExceptions) {
  svc::SnapshotStore history(svc::SnapshotStore::Config{});
  svc::Server server(history);
  server.publish(empty_snapshot());
  sim::Rng rng(104);
  for (int round = 0; round < 1500; ++round) {
    std::string frame = svc::encode_query_request(random_batch(rng, 30));
    int flips = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < flips; ++f) {
      size_t pos = rng.below(frame.size());
      frame[pos] = static_cast<char>(
          static_cast<uint8_t>(frame[pos]) ^ (uint8_t{1} << rng.below(8)));
    }
    assert_served(server, frame);
  }
}

TEST(ServiceFuzz, DeclaredCountMismatchesAreRejectedBeforeAllocation) {
  svc::SnapshotStore history(svc::SnapshotStore::Config{});
  svc::Server server(history);
  server.publish(empty_snapshot());
  sim::Rng rng(105);
  for (int round = 0; round < 500; ++round) {
    std::string frame = svc::encode_query_request(random_batch(rng, 20));
    // Patch the count field (first two payload bytes) to disagree with the
    // bytes actually present — including counts near kMaxBatch that would
    // reserve megabytes if trusted.
    uint16_t bogus = static_cast<uint16_t>(rng.below(svc::kMaxBatch + 1));
    frame[svc::kHeaderSize] = static_cast<char>(bogus & 0xff);
    frame[svc::kHeaderSize + 1] = static_cast<char>(bogus >> 8);
    size_t declared_bytes = 2 + size_t{bogus} * 10;
    if (declared_bytes == frame.size() - svc::kHeaderSize) continue;
    std::string response;
    EXPECT_NO_THROW(response = server.serve(frame));
    EXPECT_EQ(svc::decode_header(response).type, svc::FrameType::kError);
  }
}

TEST(ServiceFuzz, OversizedDeclarationsAreCutNotBuffered) {
  // payload_len beyond the cap: frame_size must throw (the transport drops
  // the connection) rather than report a gigabyte-sized frame to wait for.
  std::string header = "DL";
  header += '\x01';
  header += '\x01';
  for (uint32_t declared :
       {static_cast<uint32_t>(svc::kMaxPayload + 1), uint32_t{0x7fffffff},
        uint32_t{0xffffffff}}) {
    std::string frame = header;
    frame += static_cast<char>(declared & 0xff);
    frame += static_cast<char>((declared >> 8) & 0xff);
    frame += static_cast<char>((declared >> 16) & 0xff);
    frame += static_cast<char>((declared >> 24) & 0xff);
    EXPECT_THROW(svc::frame_size(frame), ParseError) << declared;
    svc::SnapshotStore history(svc::SnapshotStore::Config{});
    svc::Server server(history);
    server.publish(empty_snapshot());
    assert_served(server, frame);
    EXPECT_EQ(server.stats().malformed, 1u);
  }
}

TEST(ServiceFuzz, ClientDecodersHoldTheSameContract) {
  sim::Rng rng(106);
  for (int round = 0; round < 3000; ++round) {
    size_t len = rng.below(120);
    std::string bytes(len, '\0');
    for (char& c : bytes) c = static_cast<char>(rng.below(256));
    for (int which = 0; which < 4; ++which) {
      try {
        switch (which) {
          case 0:
            (void)svc::decode_query_request(bytes);
            break;
          case 1:
            (void)svc::decode_query_response(bytes);
            break;
          case 2:
            (void)svc::decode_range_request(bytes);
            break;
          default:
            (void)svc::decode_range_response(bytes);
        }
      } catch (const ParseError&) {
        // expected for malformed input
      } catch (const std::exception& e) {
        FAIL() << "non-ParseError exception: " << e.what();
      }
    }
  }
}

TEST(ServiceFuzz, RoundTripsSurviveMutationOfEveryByte) {
  // Exhaustive single-byte corruption of one representative frame.
  svc::SnapshotStore history(svc::SnapshotStore::Config{});
  svc::Server server(history);
  server.publish(empty_snapshot());
  std::vector<svc::Query> batch = {
      svc::Query{kDate, net::Prefix::parse("10.0.0.0/8"), svc::kAllFields},
      svc::Query{kDate, net::Prefix::parse("192.0.2.0/24"), 0x05},
  };
  std::string frame = svc::encode_query_request(batch);
  for (size_t pos = 0; pos < frame.size(); ++pos) {
    for (int delta : {1, 0x80}) {
      std::string mutated = frame;
      mutated[pos] = static_cast<char>(
          static_cast<uint8_t>(mutated[pos]) ^ static_cast<uint8_t>(delta));
      assert_served(server, mutated);
    }
  }
}

}  // namespace
}  // namespace droplens
