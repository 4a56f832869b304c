// Unit tests for the foundation library: time, RNG, columns, time series,
// statistics, event queue, CSV, table rendering, and CRC-32.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/column.h"
#include "common/crc32.h"
#include "common/crc32_kernels.h"
#include "common/csv.h"
#include "common/event_queue.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/time.h"
#include "common/timeseries.h"

namespace domino {
namespace {

// --- Time / Duration --------------------------------------------------------

TEST(TimeTest, DurationArithmetic) {
  EXPECT_EQ((Millis(5) + Micros(500)).micros(), 5500);
  EXPECT_EQ((Millis(5) - Millis(7)).micros(), -2000);
  EXPECT_EQ((Millis(3) * 4).millis(), 12.0);
  EXPECT_EQ((Millis(10) / 4).micros(), 2500);
  EXPECT_EQ(Millis(10) / Millis(3), 3);
  EXPECT_DOUBLE_EQ(Seconds(1.5).seconds(), 1.5);
}

TEST(TimeTest, TimePointArithmetic) {
  Time t{1'000'000};
  EXPECT_EQ((t + Millis(5)).micros(), 1'005'000);
  EXPECT_EQ((t - Millis(5)).micros(), 995'000);
  EXPECT_EQ((t - Time{400'000}).micros(), 600'000);
  Time u = t;
  u += Seconds(1.0);
  EXPECT_EQ(u.micros(), 2'000'000);
}

TEST(TimeTest, Comparisons) {
  EXPECT_LT(Time{1}, Time{2});
  EXPECT_LE(Millis(1), Millis(1));
  EXPECT_GT(Time::max(), Time{1'000'000'000});
}

TEST(TimeTest, Formatting) {
  EXPECT_EQ(ToString(Time{1'234'000}), "1.234s");
  EXPECT_EQ(ToString(Millis(105)), "105.0ms");
}

// --- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(3.0, 5.0);
    EXPECT_GE(v, 3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.UniformInt(1, 4);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 4);
    saw_lo |= v == 1;
    saw_hi |= v == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  RunningStats st;
  for (int i = 0; i < 20000; ++i) st.Add(rng.Normal(10.0, 2.0));
  EXPECT_NEAR(st.mean(), 10.0, 0.1);
  EXPECT_NEAR(st.stddev(), 2.0, 0.1);
}

TEST(RngTest, ExpMeanMoment) {
  Rng rng(13);
  RunningStats st;
  for (int i = 0; i < 20000; ++i) st.Add(rng.ExpMean(3.0));
  EXPECT_NEAR(st.mean(), 3.0, 0.15);
}

TEST(RngTest, ChanceProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Chance(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ForkedStreamsIndependent) {
  Rng parent(5);
  Rng a = parent.Fork(1);
  Rng b = parent.Fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

// --- Column (shared copy-on-write slices) ------------------------------------

std::vector<std::int64_t> Elems(const Column<std::int64_t>& c) {
  return {c.data(), c.data() + c.size()};
}

/// Fills a column with 0..n-1 through push_back (growable storage).
Column<std::int64_t> Iota(std::int64_t n) {
  Column<std::int64_t> c;
  for (std::int64_t i = 0; i < n; ++i) c.push_back(i);
  return c;
}

/// The three storage shapes a column can be copied from.
enum class Source { kOwned, kSliced, kBorrowed };

Column<std::int64_t> MakeSource(Source s) {
  switch (s) {
    case Source::kOwned:
      return Iota(8);
    case Source::kSliced: {
      Column<std::int64_t> c = Iota(11);
      c.DropFront(3);  // 3..10: a slice with a dead prefix
      return c;
    }
    case Source::kBorrowed: {
      // Foreign storage pinned by a keepalive, as an mmap'd .dtb is.
      auto arena = std::make_shared<std::vector<std::int64_t>>(
          std::vector<std::int64_t>{40, 41, 42, 43, 44, 45, 46, 47});
      Column<std::int64_t> c;
      c.Adopt(std::shared_ptr<const void>(arena), arena->data() + 1, 6);
      return c;  // 41..46
    }
  }
  return {};
}

/// Every mutator, each with the effect it must have on a std::vector.
struct Mutator {
  const char* name;
  std::function<void(Column<std::int64_t>&)> apply;
  std::function<void(std::vector<std::int64_t>&)> model;
};

std::vector<Mutator> AllMutators() {
  return {
      {"push_back", [](auto& c) { c.push_back(99); },
       [](auto& v) { v.push_back(99); }},
      {"Set", [](auto& c) { c.Set(1, -5); }, [](auto& v) { v[1] = -5; }},
      {"mut", [](auto& c) { c.mut()[0] = 7; }, [](auto& v) { v[0] = 7; }},
      {"Keep",
       [](auto& c) {
         std::vector<unsigned char> keep(c.size());
         for (std::size_t i = 0; i < keep.size(); ++i) keep[i] = i % 2;
         c.Keep(keep);
       },
       [](auto& v) {
         std::vector<std::int64_t> out;
         for (std::size_t i = 1; i < v.size(); i += 2) out.push_back(v[i]);
         v = out;
       }},
      {"Gather",
       [](auto& c) {
         std::vector<std::uint32_t> perm(c.size());
         std::iota(perm.rbegin(), perm.rend(), 0u);
         c.Gather(perm);
       },
       [](auto& v) { std::reverse(v.begin(), v.end()); }},
      {"Assign", [](auto& c) { c.Assign({1, 2, 3}); },
       [](auto& v) { v = {1, 2, 3}; }},
      {"reserve", [](auto& c) { c.reserve(1000); }, [](auto&) {}},
      {"clear", [](auto& c) { c.clear(); }, [](auto& v) { v.clear(); }},
      {"DropFront", [](auto& c) { c.DropFront(2); },
       [](auto& v) { v.erase(v.begin(), v.begin() + 2); }},
      {"DropFront+keep",
       [](auto& c) {
         const std::vector<unsigned char> keep = {0, 1, 0};
         c.DropFront(1, keep);
       },
       [](auto& v) { v = std::vector<std::int64_t>(v.begin() + 2, v.end());
                     v.erase(v.begin() + 1); }},
  };
}

TEST(ColumnTest, EveryMutatorLeavesEveryOtherCopyIntact) {
  for (Source s : {Source::kOwned, Source::kSliced, Source::kBorrowed}) {
    for (const Mutator& m : AllMutators()) {
      SCOPED_TRACE(std::string(m.name) + " on source " +
                   std::to_string(static_cast<int>(s)));
      Column<std::int64_t> src = MakeSource(s);
      const std::vector<std::int64_t> original = Elems(src);
      Column<std::int64_t> a = src;  // copy constructor
      Column<std::int64_t> b;
      b = src;  // copy assignment
      m.apply(a);
      std::vector<std::int64_t> want = original;
      m.model(want);
      EXPECT_EQ(Elems(a), want);
      EXPECT_EQ(Elems(src), original);
      EXPECT_EQ(Elems(b), original);
      // And the other way round: mutating the source spares its copies.
      m.apply(src);
      EXPECT_EQ(Elems(src), want);
      EXPECT_EQ(Elems(b), original);
      EXPECT_EQ(Elems(a), want);
    }
  }
}

TEST(ColumnTest, UniqueColumnsMutateInPlace) {
  Column<std::int64_t> c = Iota(100);
  const std::int64_t* before = c.data();
  c.Set(5, -1);
  c.DropFront(10);
  EXPECT_EQ(c.data(), before + 10);  // a slice advance moves nothing
  const std::vector<unsigned char> keep = {1, 0, 1};
  c.DropFront(0, keep);  // drops element 11; 10 slides onto its slot
  EXPECT_EQ(c.data(), before + 11);
  EXPECT_EQ(c.size(), 89u);
  EXPECT_EQ(c[0], 10);
  EXPECT_EQ(c[1], 12);
  EXPECT_EQ(c.back(), 99);
}

TEST(ColumnTest, ForeignStorageReportsBorrowedUntilFirstWrite) {
  Column<std::int64_t> c = MakeSource(Source::kBorrowed);
  Column<std::int64_t> copy = c;
  EXPECT_TRUE(c.borrowed());
  EXPECT_TRUE(copy.borrowed());
  c.DropFront(1);  // a slice advance is not a write
  EXPECT_TRUE(c.borrowed());
  c.push_back(1);
  EXPECT_FALSE(c.borrowed());
  EXPECT_TRUE(copy.borrowed());
  EXPECT_EQ(Elems(copy), (std::vector<std::int64_t>{41, 42, 43, 44, 45, 46}));

  // A time axis shared with a sibling series stays shared in every copy
  // until that copy appends.
  auto axis = std::make_shared<const std::vector<Time>>(
      std::vector<Time>{Time{0}, Time{10}, Time{20}});
  TimeSeries<double> s;
  s.AdoptSharedTimes(axis, {1.0, 2.0, 3.0});
  TimeSeries<double> t = s;
  EXPECT_TRUE(s.shares_times());
  EXPECT_TRUE(t.shares_times());
  t.Push(Time{30}, 4.0);
  EXPECT_FALSE(t.shares_times());
  EXPECT_TRUE(s.shares_times());
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(t.size(), 4u);
}

TEST(ColumnTest, SlicedColumnStaysBelowTwiceItsPeakSize) {
  // A stream evicted as fast as it grows (a live session's steady state):
  // the dead prefix is reclaimed instead of growing the buffer, and the
  // buffer stays below twice the most elements the column ever held, for
  // retained sizes at every position between two capacity steps. In this
  // steady state it never holds more than the unsliced column either,
  // which doubles exactly as a std::vector does.
  for (const std::size_t keep : {300u, 700u, 1000u, 1500u, 5000u}) {
    SCOPED_TRACE(keep);
    Column<std::int64_t> sliced;
    Column<std::int64_t> unsliced;
    std::int64_t first = 0;
    std::size_t peak = 0;
    for (std::int64_t i = 0; i < 100000; ++i) {
      sliced.push_back(i);
      unsliced.push_back(i);
      peak = std::max(peak, sliced.size());
      if (i % 97 == 0 && sliced.size() > keep) {
        const std::size_t drop = sliced.size() - keep;
        sliced.DropFront(drop);
        first += static_cast<std::int64_t>(drop);
      }
      ASSERT_LE(sliced.capacity(), unsliced.capacity()) << "after " << i;
      ASSERT_LT(sliced.capacity(), std::max<std::size_t>(2 * peak, 17))
          << "after " << i;
    }
    EXPECT_EQ(sliced.front(), first);
    EXPECT_EQ(sliced.back(), 99999);
    EXPECT_EQ(peak, keep + 97);
    EXPECT_EQ(unsliced.capacity(), 131072u);
  }

  // A column that was evicted once and then only grows: the growth by half
  // that the dead prefix chose can put a later doubling past the unsliced
  // column's capacity, but never past twice the column's peak size.
  Column<std::int64_t> sliced;
  Column<std::int64_t> unsliced;
  std::size_t peak = 0;
  bool past_unsliced = false;
  for (std::int64_t i = 0; i < 200000; ++i) {
    sliced.push_back(i);
    unsliced.push_back(i);
    peak = std::max(peak, sliced.size());
    if (i == 1500) sliced.DropFront(1);
    past_unsliced |= sliced.capacity() > unsliced.capacity();
    ASSERT_LT(sliced.capacity(), std::max<std::size_t>(2 * peak, 17))
        << "after " << i;
  }
  EXPECT_TRUE(past_unsliced);
  EXPECT_EQ(sliced.size(), 199999u);
}

TEST(ColumnTest, CopiesMutatedOnTwoThreads) {
  // Each thread mutates its own copy of one shared buffer; the original
  // and each copy must come out exactly as a private vector would.
  const Column<std::int64_t> shared = Iota(20000);
  auto work = [&shared](std::int64_t tag, std::vector<std::int64_t>* out) {
    for (int round = 0; round < 20; ++round) {
      Column<std::int64_t> c = shared;
      c.Set(0, tag);
      for (std::int64_t i = 0; i < 1000; ++i) c.push_back(tag + i);
      c.DropFront(500);
      *out = Elems(c);
    }
  };
  std::vector<std::int64_t> r1;
  std::vector<std::int64_t> r2;
  std::thread t1(work, 1000000, &r1);
  std::thread t2(work, 2000000, &r2);
  t1.join();
  t2.join();
  EXPECT_EQ(Elems(shared), Elems(Iota(20000)));
  ASSERT_EQ(r1.size(), 20500u);
  EXPECT_EQ(r1.front(), 500);
  EXPECT_EQ(r1.back(), 1000000 + 999);
  EXPECT_EQ(r2.back(), 2000000 + 999);
}

TEST(ColumnTest, LastReleaseOnAnotherThreadLetsTheOwnerWriteInPlace) {
  // Another thread reads its copy and drops it; the owner then sees a
  // count of 1 and overwrites the elements that thread read, in place.
  // Only the count's acquire/release orders the two (the flag is relaxed),
  // which is what the TSan leg checks.
  for (int round = 0; round < 50; ++round) {
    Column<std::int64_t> owner = Iota(64);
    const std::int64_t* storage = owner.data();
    std::atomic<bool> released{false};
    std::thread reader([copy = owner, &released]() mutable {
      std::int64_t sum = 0;
      for (std::size_t i = 0; i < copy.size(); ++i) sum += copy[i];
      EXPECT_EQ(sum, 63 * 64 / 2);
      copy = Column<std::int64_t>();
      released.store(true, std::memory_order_relaxed);
    });
    while (!released.load(std::memory_order_relaxed)) {
      std::this_thread::yield();
    }
    for (std::size_t i = 0; i < owner.size(); ++i) {
      owner.Set(i, -static_cast<std::int64_t>(i));
    }
    EXPECT_EQ(owner.data(), storage);
    EXPECT_EQ(owner[63], -63);
    reader.join();
  }
}

// --- TimeSeries --------------------------------------------------------------

TimeSeries<double> MakeSeries(std::initializer_list<double> values,
                              std::int64_t step_us = 1000) {
  TimeSeries<double> s;
  std::int64_t t = 0;
  for (double v : values) {
    s.Push(Time{t}, v);
    t += step_us;
  }
  return s;
}

TEST(TimeSeriesTest, PushAndAccess) {
  auto s = MakeSeries({1, 2, 3});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s[1].value, 2);
  EXPECT_EQ(s.front().value, 1);
  EXPECT_EQ(s.back().value, 3);
}

TEST(TimeSeriesTest, RejectsBackwardsTime) {
  TimeSeries<double> s;
  s.Push(Time{100}, 1.0);
  EXPECT_THROW(s.Push(Time{50}, 2.0), std::invalid_argument);
  s.Push(Time{100}, 3.0);  // equal time is fine
}

TEST(TimeSeriesTest, WindowHalfOpen) {
  auto s = MakeSeries({0, 1, 2, 3, 4});  // times 0,1,2,3,4 ms
  auto w = s.Window(Time{1000}, Time{3000});
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].value, 1);
  EXPECT_EQ(w[1].value, 2);
}

TEST(TimeSeriesTest, WindowEmptyAndFull) {
  auto s = MakeSeries({5, 6, 7});
  EXPECT_TRUE(s.Window(Time{100'000}, Time{200'000}).empty());
  EXPECT_EQ(s.Window(Time{0}, Time{1'000'000}).size(), 3u);
}

TEST(TimeSeriesTest, ValueAt) {
  auto s = MakeSeries({10, 20, 30});
  EXPECT_EQ(s.ValueAt(Time{-5}, -1.0), -1.0);
  EXPECT_EQ(s.ValueAt(Time{0}), 10);
  EXPECT_EQ(s.ValueAt(Time{1500}), 20);
  EXPECT_EQ(s.ValueAt(Time{99'000}), 30);
}

TEST(WindowViewTest, MinMaxArg) {
  auto s = MakeSeries({3, 1, 4, 1, 5});
  auto w = s.Window(Time{0}, Time{10'000});
  EXPECT_EQ(w.Min(), 1);
  EXPECT_EQ(w.Max(), 5);
  EXPECT_EQ(w.ArgMin().micros(), 1000);  // first minimum
  EXPECT_EQ(w.ArgMax().micros(), 4000);
}

TEST(WindowViewTest, MeanSumCount) {
  auto s = MakeSeries({2, 4, 6});
  auto w = s.Window(Time{0}, Time{10'000});
  EXPECT_DOUBLE_EQ(w.Mean(), 4.0);
  EXPECT_DOUBLE_EQ(w.Sum(), 12.0);
  EXPECT_EQ(w.CountIf([](double v) { return v > 3; }), 2u);
  EXPECT_TRUE(w.Any([](double v) { return v == 6; }));
  EXPECT_FALSE(w.Any([](double v) { return v > 10; }));
}

TEST(WindowViewTest, Trends) {
  auto up = MakeSeries({1, 2, 3});
  auto down = MakeSeries({3, 2, 1});
  auto flat = MakeSeries({2, 2, 2});
  auto full = [](const TimeSeries<double>& s) {
    return s.Window(Time{0}, Time{10'000});
  };
  EXPECT_TRUE(full(up).HasIncreasingStep());
  EXPECT_FALSE(full(up).HasDecreasingStep());
  EXPECT_TRUE(full(down).HasDecreasingStep());
  EXPECT_FALSE(full(down).HasIncreasingStep());
  EXPECT_FALSE(full(flat).HasIncreasingStep());
  EXPECT_FALSE(full(flat).HasDecreasingStep());
}

TEST(WindowViewTest, BucketMeans) {
  TimeSeries<double> s;
  for (int i = 0; i < 25; ++i) s.Push(Time{i * 1000}, i);
  auto w = s.Window(Time{0}, Time{100'000});
  auto means = BucketMeans(w, 10);
  ASSERT_EQ(means.size(), 2u);  // trailing partial bucket dropped
  EXPECT_DOUBLE_EQ(means[0], 4.5);
  EXPECT_DOUBLE_EQ(means[1], 14.5);
}

TEST(WindowViewTest, TimeBucketMeans) {
  TimeSeries<double> s;
  s.Push(Time{0}, 1);
  s.Push(Time{10'000}, 3);   // same 50 ms bucket
  s.Push(Time{60'000}, 10);  // next bucket
  auto w = s.Window(Time{0}, Time{200'000});
  auto means = TimeBucketMeans(w, Time{0}, Millis(50));
  ASSERT_EQ(means.size(), 2u);
  EXPECT_DOUBLE_EQ(means[0], 2.0);
  EXPECT_DOUBLE_EQ(means[1], 10.0);
}

// --- Stats ---------------------------------------------------------------------

TEST(StatsTest, PercentileBasics) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7}, 99), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4, 5}, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4}, 50), 2.5);  // interpolation
  EXPECT_DOUBLE_EQ(Percentile({5, 1, 3}, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({5, 1, 3}, 100), 5.0);
}

TEST(StatsTest, PercentileClampsP) {
  EXPECT_DOUBLE_EQ(Percentile({1, 2}, -10), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2}, 200), 2.0);
}

TEST(StatsTest, MeanAndStdDev) {
  EXPECT_DOUBLE_EQ(Mean({2, 4, 6}), 4.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_NEAR(StdDev({2, 4, 6}), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(StdDev({5}), 0.0);
}

TEST(StatsTest, CdfSummary) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  auto cdf = MakeCdf(v, {50, 99});
  ASSERT_EQ(cdf.points.size(), 2u);
  EXPECT_NEAR(cdf.points[0], 50.5, 0.01);
  EXPECT_NEAR(cdf.points[1], 99.01, 0.01);
}

TEST(StatsTest, RunningStatsMatchesBatch) {
  Rng rng(3);
  std::vector<double> v;
  RunningStats st;
  for (int i = 0; i < 500; ++i) {
    double x = rng.Normal(5, 3);
    v.push_back(x);
    st.Add(x);
  }
  EXPECT_NEAR(st.mean(), Mean(v), 1e-9);
  EXPECT_NEAR(st.stddev(), StdDev(v), 1e-9);
  EXPECT_EQ(st.count(), 500u);
}

TEST(StatsTest, LinearSlope) {
  EXPECT_DOUBLE_EQ(LinearSlope({0, 1, 2}, {1, 3, 5}), 2.0);
  EXPECT_DOUBLE_EQ(LinearSlope({0, 1, 2}, {5, 5, 5}), 0.0);
  EXPECT_DOUBLE_EQ(LinearSlope({1}, {2}), 0.0);          // too few points
  EXPECT_DOUBLE_EQ(LinearSlope({2, 2, 2}, {1, 2, 3}), 0.0);  // degenerate x
}

// --- EventQueue ------------------------------------------------------------------

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(Time{300}, [&] { order.push_back(3); });
  q.ScheduleAt(Time{100}, [&] { order.push_back(1); });
  q.ScheduleAt(Time{200}, [&] { order.push_back(2); });
  q.RunUntil(Time{1000});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now().micros(), 1000);
}

TEST(EventQueueTest, FifoForEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.ScheduleAt(Time{100}, [&order, i] { order.push_back(i); });
  }
  q.RunUntil(Time{100});
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime) {
  EventQueue q;
  Time fired{0};
  q.ScheduleAt(Time{100}, [&] {
    q.ScheduleAfter(Millis(1), [&] { fired = q.now(); });
  });
  q.RunUntil(Time{10'000});
  EXPECT_EQ(fired.micros(), 1100);
}

TEST(EventQueueTest, RejectsPast) {
  EventQueue q;
  q.ScheduleAt(Time{100}, [] {});
  q.RunUntil(Time{200});
  EXPECT_THROW(q.ScheduleAt(Time{50}, [] {}), std::invalid_argument);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 10) q.ScheduleAfter(Millis(1), tick);
  };
  q.ScheduleAt(Time{0}, tick);
  q.RunUntil(Time{100'000});
  EXPECT_EQ(count, 10);
}

TEST(EventQueueTest, RunUntilStopsAtBoundary) {
  EventQueue q;
  int ran = 0;
  q.ScheduleAt(Time{100}, [&] { ++ran; });
  q.ScheduleAt(Time{200}, [&] { ++ran; });
  q.RunUntil(Time{150});
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(q.pending(), 1u);
  q.RunUntil(Time{200});
  EXPECT_EQ(ran, 2);
}

// --- CSV ------------------------------------------------------------------------

TEST(CsvTest, SimpleRow) {
  std::ostringstream os;
  CsvWriter w(os);
  w.WriteRow({"a", "b", "c"});
  EXPECT_EQ(os.str(), "a,b,c\n");
}

TEST(CsvTest, EscapesSpecials) {
  std::ostringstream os;
  CsvWriter w(os);
  w.WriteRow({"a,b", "he said \"hi\"", "line\nbreak"});
  EXPECT_EQ(os.str(), "\"a,b\",\"he said \"\"hi\"\"\",\"line\nbreak\"\n");
}

TEST(CsvTest, ParseRoundTrip) {
  auto cells = ParseCsvLine("\"a,b\",\"he said \"\"hi\"\"\",plain");
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0], "a,b");
  EXPECT_EQ(cells[1], "he said \"hi\"");
  EXPECT_EQ(cells[2], "plain");
}

TEST(CsvTest, UnterminatedQuoteThrows) {
  EXPECT_THROW(ParseCsvLine("\"oops"), std::invalid_argument);
}

TEST(CsvTest, ReadSkipsEmptyLinesAndCr) {
  std::istringstream is("a,b\r\n\nc,d\n");
  auto rows = ReadCsv(is);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], "b");
  EXPECT_EQ(rows[1][0], "c");
}

// --- TextTable -------------------------------------------------------------------

TEST(TextTableTest, AlignsColumns) {
  TextTable t({"name", "v"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer", "22"});
  std::string out = t.Render();
  EXPECT_NE(out.find("name    v"), std::string::npos);
  EXPECT_NE(out.find("longer  22"), std::string::npos);
}

TEST(TextTableTest, NumAndPct) {
  EXPECT_EQ(TextTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Pct(0.1234), "12.3%");
}

TEST(TextTableTest, ShortRowPadded) {
  TextTable t({"a", "b", "c"});
  t.AddRow({"x"});
  EXPECT_NO_THROW(t.Render());
}

// --- CRC-32 -----------------------------------------------------------------

/// CRC-32 straight from its definition, one bit at a time (reflected
/// polynomial 0xEDB88320, pre- and post-inverted): the reference every
/// kernel must match.
std::uint32_t BitwiseCrc32(const unsigned char* p, std::size_t n,
                           std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (c >> 1) ^ 0xEDB88320u : c >> 1;
  }
  return ~c;
}

std::vector<unsigned char> RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> out(n);
  for (auto& b : out) b = static_cast<unsigned char>(rng.UniformInt(0, 255));
  return out;
}

using Crc32Fn = std::uint32_t (*)(const void*, std::size_t, std::uint32_t);

/// The dispatching entry point plus each kernel called directly, so the
/// table kernel stays covered on CPUs where Crc32 picks the folding one.
std::vector<std::pair<std::string, Crc32Fn>> Crc32Kernels() {
  std::vector<std::pair<std::string, Crc32Fn>> k = {
      {"Crc32", &Crc32}, {"table", &crc32_internal::Crc32Table}};
  if (crc32_internal::ClmulAvailable()) {
    k.emplace_back("clmul", &crc32_internal::Crc32Clmul);
  }
  return k;
}

TEST(Crc32Test, KnownCheckValue) {
  const std::string check = "123456789";
  for (const auto& [name, crc] : Crc32Kernels()) {
    EXPECT_EQ(crc(check.data(), check.size(), 0), 0xCBF43926u) << name;
  }
}

TEST(Crc32Test, EveryKernelMatchesBitwiseAtEveryLengthAndAlignment) {
  const std::vector<unsigned char> buf = RandomBytes(320 + 16, 1);
  Rng rng(2);
  for (std::size_t align = 0; align < 16; ++align) {
    for (std::size_t n = 0; n <= 320; ++n) {
      const unsigned char* p = buf.data() + align;
      const auto random_seed =
          static_cast<std::uint32_t>(rng.UniformInt(0, 0xFFFFFFFF));
      for (std::uint32_t seed : {0u, random_seed}) {
        const std::uint32_t want = BitwiseCrc32(p, n, seed);
        for (const auto& [name, crc] : Crc32Kernels()) {
          ASSERT_EQ(crc(p, n, seed), want) << name << " length " << n
                                           << " alignment " << align
                                           << " seed " << seed;
        }
      }
    }
  }
}

TEST(Crc32Test, ChunkedEqualsWholeAcrossBlockBoundaries) {
  const std::vector<unsigned char> buf = RandomBytes(1000, 3);
  const std::uint32_t whole = BitwiseCrc32(buf.data(), buf.size(), 0);
  std::vector<std::size_t> splits;
  for (std::size_t edge : {16, 32, 48, 64, 128, 192, 256, 512, 936, 984}) {
    for (std::size_t d : {edge - 1, edge, edge + 1}) splits.push_back(d);
  }
  splits.push_back(0);
  splits.push_back(buf.size());
  for (const auto& [name, crc] : Crc32Kernels()) {
    for (std::size_t split : splits) {
      const std::uint32_t head = crc(buf.data(), split, 0);
      EXPECT_EQ(crc(buf.data() + split, buf.size() - split, head), whole)
          << name << " split at " << split;
    }
  }
}

TEST(Crc32Test, MultiMebibyteBuffer) {
  const std::vector<unsigned char> buf = RandomBytes((5 << 20) + 13, 4);
  const std::uint32_t want = BitwiseCrc32(buf.data(), buf.size(), 0);
  for (const auto& [name, crc] : Crc32Kernels()) {
    EXPECT_EQ(crc(buf.data(), buf.size(), 0), want) << name;
  }
}

}  // namespace
}  // namespace domino
