// Golden-value tests for the stable 64-bit fingerprint. These constants pin
// the canonical encoding itself: if any of them changes, every persisted
// fingerprint (plan-cache keys, BENCH row ids) silently changes meaning.
// Update them only for a deliberate, versioned encoding change.
//
// The planning fingerprint keys plan memos, so it must also see every
// change a degraded cluster carries: a memo keyed on a digest that missed
// one would hand back a plan for the wrong cluster.
#include "common/fingerprint.h"

#include <gtest/gtest.h>

#include "fault/degrade.h"
#include "fault/script.h"
#include "planner/fingerprint.h"
#include "topo/cluster.h"

namespace dapple {
namespace {

TEST(Fingerprint, GoldenValues) {
  EXPECT_EQ(Fingerprint64().digest(), 14695981039346656037ull);  // FNV offset basis
  EXPECT_EQ(Fingerprint64().Mix(std::uint64_t{0}).digest(), 12161962213042174405ull);
  EXPECT_EQ(Fingerprint64().Mix(std::uint64_t{1}).digest(), 9929646806074584996ull);
  EXPECT_EQ(Fingerprint64().Mix(std::int64_t{-1}).digest(), 10157053723145373757ull);
  EXPECT_EQ(Fingerprint64().Mix(3.25).digest(), 12156152393599842831ull);
  EXPECT_EQ(Fingerprint64().Mix(true).digest(), 12638152016183539244ull);
  EXPECT_EQ(Fingerprint64().Mix("GNMT-16").digest(), 7430650025091691278ull);
  EXPECT_EQ(
      Fingerprint64().Mix("model/v1").Mix(std::int64_t{64}).Mix(2.5).Mix(false).digest(),
      9681871815477372230ull);
}

TEST(Fingerprint, SignedZeroNormalizesToPositiveZero) {
  EXPECT_EQ(Fingerprint64().Mix(0.0).digest(), Fingerprint64().Mix(-0.0).digest());
  // And double 0.0 encodes exactly like integer 0 (all-zero bit pattern).
  EXPECT_EQ(Fingerprint64().Mix(0.0).digest(),
            Fingerprint64().Mix(std::uint64_t{0}).digest());
}

TEST(Fingerprint, LengthPrefixKeepsStringBoundariesDistinct) {
  const auto ab_c = Fingerprint64().Mix("ab").Mix("c").digest();
  const auto a_bc = Fingerprint64().Mix("a").Mix("bc").digest();
  EXPECT_EQ(ab_c, 9106356563233852118ull);
  EXPECT_EQ(a_bc, 13411190885463677162ull);
  EXPECT_NE(ab_c, a_bc);
}

TEST(Fingerprint, OrderMatters) {
  EXPECT_NE(Fingerprint64().Mix(std::uint64_t{1}).Mix(std::uint64_t{2}).digest(),
            Fingerprint64().Mix(std::uint64_t{2}).Mix(std::uint64_t{1}).digest());
}

TEST(Fingerprint, DigestIsNeverZero) {
  // The empty digest is the offset basis; any digest that lands on 0 is
  // remapped so 0 stays usable as an "absent" sentinel.
  EXPECT_NE(Fingerprint64().digest(), 0u);
  EXPECT_NE(Fingerprint64().Mix(std::uint64_t{0}).digest(), 0u);
}

TEST(Fingerprint, ToStringIsFixedWidthHex) {
  EXPECT_EQ(FingerprintToString(9681871815477372230ull), "fp:865ceb1e92652546");
  EXPECT_EQ(FingerprintToString(1), "fp:0000000000000001");
}

std::uint64_t DegradedDigest(const topo::Cluster& cluster, const fault::ClusterState& state) {
  return planner::FingerprintCluster(fault::MakeDegradedCluster(cluster, state).cluster);
}

TEST(PlanningFingerprint, EveryDegradationMovesTheClusterDigest) {
  for (const topo::Cluster& cluster : {topo::MakeConfigB(4), topo::MakeConfigA(2)}) {
    SCOPED_TRACE(cluster.name());
    const fault::ClusterState healthy = fault::StateAt(fault::FaultScript{}, cluster, 0.0);
    const std::uint64_t base = DegradedDigest(cluster, healthy);
    EXPECT_EQ(base, planner::FingerprintCluster(cluster));

    fault::ClusterState dead = healthy;  // drains the last server
    dead.device_dead[static_cast<std::size_t>(cluster.num_devices() - 1)] = true;
    EXPECT_NE(DegradedDigest(cluster, dead), base) << "dead device";

    fault::ClusterState straggler = healthy;  // the WithServerSpeeds path
    straggler.server_compute[1] = 0.5;
    EXPECT_NE(DegradedDigest(cluster, straggler), base) << "server_compute slowdown";

    fault::ClusterState bandwidth = healthy;
    bandwidth.server_bandwidth[1] = 0.5;
    EXPECT_NE(DegradedDigest(cluster, bandwidth), base) << "inter-server bandwidth";

    fault::ClusterState latency = healthy;
    latency.server_extra_latency[1] = 1e-3;
    EXPECT_NE(DegradedDigest(cluster, latency), base) << "inter-server latency";
  }
}

TEST(PlanningFingerprint, LosingEitherOfTwoEqualServersGivesOneDigest) {
  for (const topo::Cluster& cluster : {topo::MakeConfigB(4), topo::MakeConfigA(2)}) {
    SCOPED_TRACE(cluster.name());
    const fault::ClusterState healthy = fault::StateAt(fault::FaultScript{}, cluster, 0.0);
    const int gps = cluster.gpus_per_server();
    fault::ClusterState lose_first = healthy;
    lose_first.device_dead[0] = true;
    fault::ClusterState lose_second = healthy;
    lose_second.device_dead[static_cast<std::size_t>(gps)] = true;
    EXPECT_EQ(DegradedDigest(cluster, lose_first), DegradedDigest(cluster, lose_second));

    // Unequal servers are not interchangeable: with server 1 slowed, which
    // server dies decides whether the survivors are heterogeneous.
    lose_first.server_compute[1] = 0.5;
    lose_second.server_compute[1] = 0.5;
    EXPECT_NE(DegradedDigest(cluster, lose_first), DegradedDigest(cluster, lose_second));
  }
}

}  // namespace
}  // namespace dapple
