// Tests for the runtime layer: the thread pool, the deterministic
// parallel sweep engine, counter-based seed splitting, LinkStats merging
// and the bench formatting helpers they feed.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/units.h"
#include "runtime/sweep.h"
#include "runtime/thread_pool.h"
#include "sim/link_sim.h"

namespace rt::runtime {
namespace {

// ---------------------------------------------------------------------------
// split_seed

TEST(SplitSeedTest, IsAPureFunction) {
  EXPECT_EQ(split_seed(42, 3, 1), split_seed(42, 3, 1));
  EXPECT_EQ(split_seed(0, 0, 0), split_seed(0, 0, 0));
}

TEST(SplitSeedTest, EveryArgumentChangesTheStream) {
  const std::uint64_t base = split_seed(42, 3, 1);
  EXPECT_NE(base, split_seed(43, 3, 1));
  EXPECT_NE(base, split_seed(42, 4, 1));
  EXPECT_NE(base, split_seed(42, 3, 2));
  // Swapping the two indices must not collide either.
  EXPECT_NE(split_seed(42, 1, 3), split_seed(42, 3, 1));
}

TEST(SplitSeedTest, NoCollisionsOverAPacketGrid) {
  // 4 seeds x 256 packets x 3 streams -- the shape a sweep actually uses.
  std::set<std::uint64_t> seen;
  for (std::uint64_t seed : {0ULL, 1ULL, 42ULL, 0xffffffffffffffffULL})
    for (std::uint64_t packet = 0; packet < 256; ++packet)
      for (std::uint64_t stream = 0; stream < 3; ++stream)
        seen.insert(split_seed(seed, packet, stream));
  EXPECT_EQ(seen.size(), 4u * 256u * 3u);
}

// ---------------------------------------------------------------------------
// LinkStats

TEST(LinkStatsTest, MergeSumsEveryField) {
  sim::LinkStats a{.packets = 3, .preamble_failures = 1, .bit_errors = 10, .total_bits = 100};
  sim::LinkStats b{.packets = 5, .preamble_failures = 0, .bit_errors = 2, .total_bits = 300};
  a.merge(b);
  EXPECT_EQ(a.packets, 8);
  EXPECT_EQ(a.preamble_failures, 1);
  EXPECT_EQ(a.bit_errors, 12u);
  EXPECT_EQ(a.total_bits, 400u);
}

TEST(LinkStatsTest, AnyPartitionMergesToTheWhole) {
  // 16 per-packet stat records with varied contents.
  std::vector<sim::LinkStats> parts;
  sim::LinkStats whole;
  for (int i = 0; i < 16; ++i) {
    sim::LinkStats s{.packets = 1,
                     .preamble_failures = i % 5 == 0 ? 1 : 0,
                     .bit_errors = static_cast<std::size_t>(i * 3),
                     .total_bits = 256};
    whole.merge(s);
    parts.push_back(s);
  }
  // Try several partitions (every k-th record into bucket k mod n).
  for (int buckets : {1, 2, 3, 5, 16}) {
    std::vector<sim::LinkStats> acc(static_cast<std::size_t>(buckets));
    for (std::size_t i = 0; i < parts.size(); ++i) acc[i % buckets].merge(parts[i]);
    sim::LinkStats merged;
    // Merge the buckets in reverse order to also exercise commutativity.
    for (auto it = acc.rbegin(); it != acc.rend(); ++it) merged.merge(*it);
    EXPECT_EQ(merged.packets, whole.packets);
    EXPECT_EQ(merged.preamble_failures, whole.preamble_failures);
    EXPECT_EQ(merged.bit_errors, whole.bit_errors);
    EXPECT_EQ(merged.total_bits, whole.total_bits);
  }
}

TEST(LinkStatsTest, RatiosAreSafeOnEmptyStats) {
  const sim::LinkStats empty;
  EXPECT_EQ(empty.ber(), 0.0);
  EXPECT_EQ(empty.packet_loss(), 0.0);
  sim::LinkStats all_lost{.packets = 4, .preamble_failures = 4, .bit_errors = 0, .total_bits = 0};
  EXPECT_EQ(all_lost.ber(), 0.0);
  EXPECT_EQ(all_lost.packet_loss(), 1.0);
}

TEST(BenchFormatTest, BerStrHandlesEmptyFloorAndMeasured) {
  // Regression: an all-preambles-lost point used to print "inf%".
  sim::LinkStats none;
  EXPECT_EQ(bench::ber_str(none), "n/a");
  sim::LinkStats clean{.packets = 1, .preamble_failures = 0, .bit_errors = 0, .total_bits = 1000};
  EXPECT_EQ(bench::ber_str(clean), "<0.1000%");
  sim::LinkStats errs{.packets = 1, .preamble_failures = 0, .bit_errors = 5, .total_bits = 1000};
  EXPECT_EQ(bench::ber_str(errs), "0.5000%");
  EXPECT_EQ(bench::ber_str_counts(0, 0), "n/a");
}

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, RunsSubmittedWorkAndReturnsValues) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) futures.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 64; ++i) EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 7; });
  auto bad = pool.submit([]() -> int { throw std::runtime_error("task failed"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The pool survives a throwing task and keeps serving work.
  EXPECT_EQ(pool.submit([] { return 9; }).get(), 9);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedWork) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 32; ++i) {
      auto f = pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        done.fetch_add(1);
      });
      (void)f;  // futures dropped: destruction must still run the work
    }
  }  // ~ThreadPool drains the queue before joining
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPoolTest, NestedSubmitDoesNotDeadlock) {
  // A running task may enqueue follow-up work on the same pool -- even on a
  // single worker -- because workers never hold the queue lock while
  // executing and the outer task does not block on the inner future.
  ThreadPool pool(1);
  auto outer = pool.submit([&pool] { return pool.submit([] { return 21; }); });
  auto inner = outer.get();
  EXPECT_EQ(inner.get(), 21);
}

TEST(ThreadPoolTest, SingleWorkerPreservesSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i)
    futures.push_back(pool.submit([&order, i] { order.push_back(i); }));
  for (auto& f : futures) f.get();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPoolTest, ZeroRequestedThreadsFloorsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 5; }).get(), 5);
}

// ---------------------------------------------------------------------------
// Deterministic parallel sweep

// Small-but-real link configuration so the determinism tests run the full
// modulate -> channel -> demodulate path in a few hundred milliseconds.
phy::PhyParams fast_params() {
  phy::PhyParams p;
  p.dsm_order = 4;
  p.bits_per_axis = 1;
  p.slot_s = rt::ms(1.0);
  p.charge_s = rt::ms(0.5);
  p.preamble_slots = 32;
  p.equalizer_branches = 8;
  return p;
}

std::vector<SweepPoint> fast_points() {
  const auto params = fast_params();
  const auto tag = params.tag_config();
  const auto offline = sim::train_offline_model(params, tag);
  std::vector<SweepPoint> points;
  for (const double snr : {14.0, 30.0}) {
    SweepPoint pt;
    pt.params = params;
    pt.tag = tag;
    pt.channel.snr_override_db = snr;
    pt.channel.noise_seed = static_cast<std::uint64_t>(snr);
    pt.sim.seed = 7;
    pt.sim.offline_yaws_deg = {0.0};
    pt.sim.shared_offline_model = offline;
    points.push_back(pt);
  }
  return points;
}

void expect_same_stats(const sim::LinkStats& a, const sim::LinkStats& b) {
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.preamble_failures, b.preamble_failures);
  EXPECT_EQ(a.bit_errors, b.bit_errors);
  EXPECT_EQ(a.total_bits, b.total_bits);
}

TEST(ParallelSweepTest, MatchesSerialRunBitForBit) {
  const auto points = fast_points();
  SweepOptions so;
  so.packets = 6;
  so.payload_bytes = 16;

  // Serial reference: the plain LinkSimulator::run loop, no pool involved.
  std::vector<sim::LinkStats> serial;
  for (const auto& pt : points) {
    const sim::LinkSimulator link(pt.params, pt.tag, pt.channel, pt.sim);
    serial.push_back(link.run(so.packets, so.payload_bytes));
  }

  for (const unsigned threads : {1u, 4u}) {
    so.threads = threads;
    const auto sweep = parallel_sweep(points, so);
    ASSERT_EQ(sweep.stats.size(), points.size());
    EXPECT_EQ(sweep.threads, threads);
    for (std::size_t i = 0; i < points.size(); ++i) expect_same_stats(serial[i], sweep.stats[i]);
  }
}

TEST(ParallelSweepTest, RepeatedRunsAreIdentical) {
  const auto points = fast_points();
  SweepOptions so;
  so.packets = 5;
  so.payload_bytes = 16;
  so.threads = 4;
  const auto first = parallel_sweep(points, so);
  const auto second = parallel_sweep(points, so);
  ASSERT_EQ(first.stats.size(), second.stats.size());
  for (std::size_t i = 0; i < first.stats.size(); ++i)
    expect_same_stats(first.stats[i], second.stats[i]);
}

TEST(ParallelSweepTest, BatchGrainDoesNotChangeResults) {
  const auto points = fast_points();
  SweepOptions so;
  so.packets = 6;
  so.payload_bytes = 16;
  so.threads = 3;
  so.batch_packets = 1;
  const auto fine = parallel_sweep(points, so);
  so.batch_packets = 4;  // uneven final batch on purpose
  const auto coarse = parallel_sweep(points, so);
  for (std::size_t i = 0; i < points.size(); ++i)
    expect_same_stats(fine.stats[i], coarse.stats[i]);
}

TEST(ParallelSweepTest, ReusesACallerOwnedPool) {
  const auto points = fast_points();
  SweepOptions so;
  so.packets = 4;
  so.payload_bytes = 16;
  ThreadPool pool(2);
  const auto a = parallel_sweep(points, so, pool);
  const auto b = parallel_sweep(points, so, pool);
  EXPECT_EQ(a.threads, 2u);
  for (std::size_t i = 0; i < points.size(); ++i) expect_same_stats(a.stats[i], b.stats[i]);
}

TEST(ParallelSweepTest, EmptyPointListIsFine) {
  const auto sweep = parallel_sweep({}, SweepOptions{});
  EXPECT_TRUE(sweep.stats.empty());
}

TEST(RunPacketTest, IsIndependentOfCallOrder) {
  const auto points = fast_points();
  const auto& pt = points[0];
  const sim::LinkSimulator link(pt.params, pt.tag, pt.channel, pt.sim);
  // One workspace carried forward through packets 0 and 1.
  sim::PacketWorkspace reused;
  const auto forward0 = link.run_packet(0, 16, reused);
  const auto bits0 = reused.result.bits;
  const auto forward1 = link.run_packet(1, 16, reused);
  const auto bits1 = reused.result.bits;
  // Same indices queried again, in reverse order, on the same simulator,
  // each on a fresh workspace.
  sim::PacketWorkspace fresh1;
  const auto back1 = link.run_packet(1, 16, fresh1);
  sim::PacketWorkspace fresh0;
  const auto back0 = link.run_packet(0, 16, fresh0);
  EXPECT_EQ(forward0.bit_errors, back0.bit_errors);
  EXPECT_EQ(bits0, fresh0.result.bits);
  EXPECT_EQ(forward1.bit_errors, back1.bit_errors);
  EXPECT_EQ(bits1, fresh1.result.bits);
  // Distinct packet indices see distinct payload/noise draws.
  EXPECT_NE(bits0, bits1);
}

}  // namespace
}  // namespace rt::runtime
