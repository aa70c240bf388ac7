#include <gtest/gtest.h>

#include <thread>

#include "common/buffer.hpp"
#include "common/error.hpp"
#include "common/options.hpp"
#include "common/queue.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"

namespace dooc {
namespace {

TEST(DataBuffer, AllocatesRequestedSize) {
  DataBuffer b(128);
  EXPECT_EQ(b.size(), 128u);
  EXPECT_NE(b.data(), nullptr);
  EXPECT_FALSE(b.empty());
}

TEST(DataBuffer, DefaultIsEmpty) {
  DataBuffer b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.empty());
}

TEST(DataBuffer, CopyAliasesPayload) {
  DataBuffer a(8);
  a.as<std::uint64_t>()[0] = 42;
  DataBuffer b = a;  // NOLINT: intentional alias
  b.as<std::uint64_t>()[0] = 7;
  EXPECT_EQ(a.as<std::uint64_t>()[0], 7u);
  EXPECT_EQ(a, b);
}

TEST(DataBuffer, CloneIsDeep) {
  DataBuffer a(8);
  a.as<std::uint64_t>()[0] = 42;
  DataBuffer b = a.clone();
  b.as<std::uint64_t>()[0] = 7;
  EXPECT_EQ(a.as<std::uint64_t>()[0], 42u);
  EXPECT_NE(a, b);
}

TEST(DataBuffer, AsRejectsMisalignedSize) {
  DataBuffer a(10);
  EXPECT_THROW(a.as<std::uint64_t>(), InvalidArgument);
}

TEST(Serialize, RoundTripsScalarsStringsVectors) {
  BinaryWriter w;
  w.put<std::uint32_t>(0xdeadbeef);
  w.put<double>(3.5);
  w.put_string("hello dooc");
  std::vector<std::uint64_t> vals{1, 2, 3, 5, 8};
  w.put_span<std::uint64_t>(vals);
  DataBuffer buf = w.take();

  BinaryReader r(buf);
  EXPECT_EQ(r.get<std::uint32_t>(), 0xdeadbeefu);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.5);
  EXPECT_EQ(r.get_string(), "hello dooc");
  EXPECT_EQ(r.get_vector<std::uint64_t>(), vals);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, TruncationThrows) {
  BinaryWriter w;
  w.put<std::uint32_t>(1);
  DataBuffer buf = w.take();
  BinaryReader r(buf);
  EXPECT_THROW(r.get<std::uint64_t>(), IoError);
}

TEST(BlockingQueue, FifoOrder) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
}

TEST(BlockingQueue, CloseDrainsThenSignalsEos) {
  BlockingQueue<int> q;
  q.push(1);
  q.close();
  EXPECT_FALSE(q.push(2));
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BlockingQueue, BoundedCapacityBlocksProducer) {
  BlockingQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  EXPECT_FALSE(q.try_push(2));
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.pop();
  });
  EXPECT_TRUE(q.push(2));  // unblocks when the consumer pops
  consumer.join();
}

TEST(BlockingQueue, ConcurrentProducersConsumers) {
  BlockingQueue<int> q(16);
  constexpr int kPerProducer = 500;
  std::atomic<long> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&q] {
      for (int i = 1; i <= kPerProducer; ++i) q.push(i);
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) sum += *v;
    });
  }
  threads[0].join();
  threads[1].join();
  q.close();
  threads[2].join();
  threads[3].join();
  EXPECT_EQ(sum.load(), 2L * kPerProducer * (kPerProducer + 1) / 2);
}

TEST(ThreadPool, RunsSubmittedJobs) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 32; ++i) futs.push_back(pool.submit([&] { ++counter; }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(1);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ShutdownRunsQueuedJobsThenRefusesPosts) {
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) EXPECT_TRUE(pool.post([&] { ++ran; }));
  pool.shutdown();
  EXPECT_EQ(ran.load(), 16) << "jobs queued before shutdown() must still run";
  EXPECT_FALSE(pool.post([&] { ++ran; }));
  EXPECT_THROW((void)pool.submit([] {}), std::exception);
  pool.shutdown();  // idempotent
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(64, [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelRangesPartitionIsExact) {
  ThreadPool pool(4);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  pool.parallel_ranges(103, [&](std::size_t b, std::size_t e) {
    std::lock_guard lock(m);
    ranges.emplace_back(b, e);
  });
  std::sort(ranges.begin(), ranges.end());
  std::size_t expect = 0;
  for (auto [b, e] : ranges) {
    EXPECT_EQ(b, expect);
    EXPECT_LT(b, e);
    expect = e;
  }
  EXPECT_EQ(expect, 103u);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.13809, 1e-4);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  SplitMix64 rng(7);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.next_double();
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
}

TEST(Formatting, HumanReadableUnits) {
  EXPECT_EQ(format_bytes(1536.0), "1.50 KiB");
  EXPECT_EQ(format_bandwidth(18.7e9), "18.70 GB/s");
  EXPECT_EQ(format_count(12.8e9), "12.80 G");
  EXPECT_EQ(format_duration(0.5), "500.0 ms");
}

TEST(SplitMix64, DeterministicAndSeedSensitive) {
  SplitMix64 a(1), b(1), c(2);
  EXPECT_EQ(a.next(), b.next());
  SplitMix64 a2(1);
  EXPECT_NE(a2.next(), c.next());
}

TEST(SplitMix64, BoundsRespected) {
  SplitMix64 rng(99);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_in(5, 10);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 10u);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(SplitMix64, NextBelowCoversRange) {
  SplitMix64 rng(123);
  std::vector<int> hits(7, 0);
  for (int i = 0; i < 7000; ++i) ++hits[rng.next_below(7)];
  for (int h : hits) EXPECT_GT(h, 500);  // roughly uniform
}

TEST(Options, TypedAccessorsAndDefaults) {
  Options o;
  o.set_int("nodes", 9);
  o.set_double("bw", 1.5);
  o.set_bool("sync", true);
  o.set("name", "dooc");
  EXPECT_EQ(o.get_int("nodes", 0), 9);
  EXPECT_DOUBLE_EQ(o.get_double("bw", 0.0), 1.5);
  EXPECT_TRUE(o.get_bool("sync", false));
  EXPECT_EQ(o.get("name"), "dooc");
  EXPECT_EQ(o.get_int("missing", 42), 42);
}

TEST(Options, ParsesCommandLineStyleArgs) {
  const char* argv[] = {"prog", "--nodes=4", "--verbose", "--bw=2.5"};
  Options o = Options::from_args(4, const_cast<char**>(argv));
  EXPECT_EQ(o.get_int("nodes", 0), 4);
  EXPECT_TRUE(o.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(o.get_double("bw", 0.0), 2.5);
}

TEST(ErrorMacros, RequireThrowsInvalidArgument) {
  EXPECT_THROW(DOOC_REQUIRE(false, "nope"), InvalidArgument);
  EXPECT_NO_THROW(DOOC_REQUIRE(true, "fine"));
}

TEST(ErrorMacros, CheckThrowsInternalError) {
  EXPECT_THROW(DOOC_CHECK(false, "bug"), InternalError);
}

}  // namespace
}  // namespace dooc
