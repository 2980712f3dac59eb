// Gao–Rexford propagation on hand-built graphs, and the impact analysis on
// the small world.
#include <gtest/gtest.h>

#include "bgp/topology.hpp"
#include "core/impact.hpp"
#include "core/snapshot_cache.hpp"
#include "sim/generator.hpp"

namespace droplens::bgp {
namespace {

net::Asn A(uint32_t v) { return net::Asn(v); }

// Topology:          T1 --peer-- T2
//                   /  \         |
//                  A    B        C
//                  |
//                  S
class PropagationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph.add_provider_customer(A(1), A(10));   // T1 -> A
    graph.add_provider_customer(A(1), A(11));   // T1 -> B
    graph.add_provider_customer(A(2), A(12));   // T2 -> C
    graph.add_provider_customer(A(10), A(100)); // A -> S
    graph.add_peering(A(1), A(2));
  }
  AsGraph graph;
};

TEST_F(PropagationTest, SingleOriginReachesEveryone) {
  PropagationResult r = propagate(graph, {{A(100), false}});
  EXPECT_EQ(r.believers(A(100)), graph.as_count());
  // Sources follow Gao-Rexford: A learns from its customer, T2 over the
  // peering, B and C from their providers.
  EXPECT_EQ(r.routes.at(A(10)).source, RouteSource::kCustomer);
  EXPECT_EQ(r.routes.at(A(1)).source, RouteSource::kCustomer);
  EXPECT_EQ(r.routes.at(A(2)).source, RouteSource::kPeer);
  EXPECT_EQ(r.routes.at(A(11)).source, RouteSource::kProvider);
  EXPECT_EQ(r.routes.at(A(12)).source, RouteSource::kProvider);
  EXPECT_EQ(r.routes.at(A(100)).source, RouteSource::kOrigin);
  // Path lengths accumulate hop by hop.
  EXPECT_EQ(r.routes.at(A(12)).path_length, 4);
}

TEST_F(PropagationTest, ValleyFreeness) {
  // A route learned over the T1--T2 peering must not be re-exported to
  // another peer, only downward. With S originating, T2's customers hear
  // it but a hypothetical third peer of T2 must not.
  graph.add_peering(A(2), A(3));  // T3, peer of T2 only
  PropagationResult r = propagate(graph, {{A(100), false}});
  EXPECT_FALSE(r.routes.contains(A(3)));
}

TEST_F(PropagationTest, CustomerRoutePreferredOverShorterPeerRoute) {
  // T1 hears S via customer A (2 hops). Give T1 a peer that originates a
  // competing prefix origination closer: preference still favors customer.
  graph.add_peering(A(1), A(5));
  PropagationResult r =
      propagate(graph, {{A(100), false}, {A(5), false}});
  EXPECT_EQ(r.routes.at(A(1)).origin, A(100));
  EXPECT_EQ(r.routes.at(A(1)).source, RouteSource::kCustomer);
}

TEST_F(PropagationTest, ContestSplitsByDistance) {
  // Victim S under A; attacker X under C: each side keeps its own region.
  graph.add_provider_customer(A(12), A(200));  // C -> X
  PropagationResult r =
      propagate(graph, {{A(100), false}, {A(200), false}});
  EXPECT_EQ(r.routes.at(A(10)).origin, A(100));
  EXPECT_EQ(r.routes.at(A(1)).origin, A(100));
  EXPECT_EQ(r.routes.at(A(12)).origin, A(200));
  EXPECT_EQ(r.routes.at(A(2)).origin, A(200));
  EXPECT_EQ(r.believers(A(100)) + r.believers(A(200)), graph.as_count());
}

TEST_F(PropagationTest, RovEnforcersDropInvalidRoutes) {
  graph.add_provider_customer(A(12), A(200));  // attacker stub under C
  // Without ROV the attacker captures the T2 side.
  PropagationResult plain =
      propagate(graph, {{A(100), false}, {A(200), true}}, {});
  EXPECT_EQ(plain.routes.at(A(2)).origin, A(200));
  // T2 and C enforcing ROV refuse the invalid route; the whole graph
  // converges on the victim (the attacker stub itself also enforces? no —
  // only T2/C do, so X still believes itself).
  PropagationResult protected_world =
      propagate(graph, {{A(100), false}, {A(200), true}}, {A(2), A(12)});
  EXPECT_EQ(protected_world.routes.at(A(2)).origin, A(100));
  EXPECT_EQ(protected_world.routes.at(A(12)).origin, A(100));
  EXPECT_EQ(protected_world.believers(A(200)), 1u);  // only X itself
}

TEST_F(PropagationTest, EnforcingEverywhereEliminatesTheInvalidRoute) {
  graph.add_provider_customer(A(12), A(200));
  std::unordered_set<net::Asn> all;
  for (net::Asn as : graph.ases()) all.insert(as);
  PropagationResult r =
      propagate(graph, {{A(100), false}, {A(200), true}}, all);
  EXPECT_EQ(r.believers(A(200)), 0u);
  EXPECT_EQ(r.believers(A(100)), graph.as_count());
}

}  // namespace
}  // namespace droplens::bgp

namespace droplens::core {
namespace {

TEST(Impact, GraphFromFleetDerivesEdgesAndTopMesh) {
  bgp::CollectorFleet fleet;
  uint32_t c = fleet.add_collector("rv");
  fleet.add_peer(c, net::Asn(9000));
  fleet.announce(net::Prefix::parse("10.0.0.0/16"),
                 bgp::AsPath{net::Asn(1), net::Asn(10), net::Asn(100)},
                 {net::Date(0), net::DateRange::unbounded()});
  fleet.announce(net::Prefix::parse("11.0.0.0/16"),
                 bgp::AsPath{net::Asn(2), net::Asn(200)},
                 {net::Date(0), net::DateRange::unbounded()});
  bgp::AsGraph graph = build_graph_from_fleet(fleet);
  EXPECT_EQ(graph.as_count(), 5u);
  // 1 and 2 never appear as customers: they form the top mesh.
  EXPECT_EQ(graph.peers(net::Asn(1)).size(), 1u);
  EXPECT_EQ(graph.peers(net::Asn(1))[0], net::Asn(2));
  EXPECT_EQ(graph.customers(net::Asn(10))[0], net::Asn(100));
  // Routes originated at 100 reach 200 across the mesh.
  bgp::PropagationResult r =
      bgp::propagate(graph, {{net::Asn(100), false}});
  EXPECT_TRUE(r.routes.contains(net::Asn(200)));
}

TEST(Impact, RovAdoptionCurveOnSmallWorld) {
  sim::ScenarioConfig config = sim::ScenarioConfig::small();
  std::unique_ptr<sim::World> world = sim::generate(config);
  SnapshotCache cache(world->registry, world->fleet, world->roas, world->drop,
                      &world->irr);
  Study study{world->registry, world->fleet,  world->irr,
              world->roas,     world->drop,   world->sbl,
              config.window_begin, config.window_end};
  study.snapshots = &cache;
  DropIndex index = DropIndex::build(study);
  ImpactResult r =
      analyze_rov_adoption(study, index, {0.0, 0.5, 1.0});
  ASSERT_EQ(r.points.size(), 3u);
  EXPECT_GT(r.hijacks_evaluated, 0u);
  EXPECT_GT(r.graph_ases, 100u);
  // Without ROAs, adoption changes nothing.
  for (const AdoptionPoint& p : r.points) {
    EXPECT_NEAR(p.capture_unsigned, r.points[0].capture_unsigned, 1e-9);
  }
  // With ROAs, capture falls monotonically as adoption rises, from equal
  // at zero adoption to (almost) nothing at full adoption.
  EXPECT_NEAR(r.points[0].capture_signed, r.points[0].capture_unsigned,
              1e-9);
  EXPECT_GE(r.points[0].capture_signed, r.points[1].capture_signed);
  EXPECT_GE(r.points[1].capture_signed, r.points[2].capture_signed);
  EXPECT_LT(r.points[2].capture_signed, 0.01);
}

}  // namespace
}  // namespace droplens::core
