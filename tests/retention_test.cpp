// Retention by slice advance against the keep-mask oracle
// (tests/retention_reference.h): identical columns, eviction counts and
// RetentionStats on sorted and arrival-ordered streams, at and around
// every edge of the cut, and over a live-like append-and-evict loop that
// holds dataset copies across polls.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "retention_reference.h"
#include "sim/call_session.h"
#include "sim/cell_config.h"
#include "telemetry/fault_inject.h"
#include "telemetry/retention.h"

namespace domino::telemetry {
namespace {

DciRecord Dci(std::int64_t t_us, int tag) {
  DciRecord r;
  r.time = Time{t_us};
  r.rnti = static_cast<std::uint32_t>(tag);
  r.prbs = tag % 50;
  r.mcs = tag % 28;
  r.tbs_bytes = tag * 3;
  r.is_retx = tag % 7 == 0;
  r.harq_process = tag % 16;
  return r;
}

PacketRecord Packet(std::int64_t sent_us, Time received, int id) {
  PacketRecord r;
  r.id = static_cast<std::uint64_t>(id);
  r.size_bytes = 1000 + id;
  r.sent = Time{sent_us};
  r.received = received;
  r.frame_id = static_cast<std::uint64_t>(id / 3);
  return r;
}

/// Time-sorted DCIs with runs of equal timestamps.
DciColumns SortedDci(Rng& rng, int n) {
  DciColumns s;
  std::int64_t t = 0;
  for (int i = 0; i < n; ++i) {
    if (!rng.Chance(0.3)) t += rng.UniformInt(1, 500);
    s.push_back(Dci(t, i));
  }
  return s;
}

/// Packets in arrival order: the cut key (send time) is out of order
/// wherever delays differ; lost packets (Time::max()) sort last.
PacketColumns ArrivalOrderedPackets(Rng& rng, int n) {
  std::vector<PacketRecord> rows;
  std::int64_t sent = 0;
  for (int i = 0; i < n; ++i) {
    sent += rng.UniformInt(0, 400);
    const Time rx = rng.Chance(0.05)
                        ? Time::max()
                        : Time{sent + rng.UniformInt(1000, 40000)};
    rows.push_back(Packet(sent, rx, i));
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const PacketRecord& a, const PacketRecord& b) {
                     return a.received < b.received;
                   });
  PacketColumns s;
  for (const PacketRecord& r : rows) s.push_back(r);
  return s;
}

/// A copy with buffers of its own (no storage shared with `s`).
template <typename Cols>
Cols Private(const Cols& s) {
  Cols c;
  c.AssignRows(s.ToRows());
  return c;
}

/// Evicts at `cut` by slice advance from a private copy (in place) and
/// from a copy sharing `stream`'s buffers (the clone path), and by the
/// keep-mask oracle; all three must agree, and `stream` must be intact.
template <typename Cols>
void ExpectSameEviction(const Cols& stream, Time cut) {
  SCOPED_TRACE(::testing::Message() << "cut " << cut.micros() << " of "
                                    << stream.size() << " rows");
  const Cols before = Private(stream);
  Cols oracle = Private(stream);
  const std::size_t want = retention_reference::RemoveOlderThan(oracle, cut);

  Cols unique = Private(stream);
  EXPECT_EQ(unique.RemoveOlderThan(cut), want);
  EXPECT_EQ(unique, oracle);

  Cols shared = stream;
  EXPECT_EQ(shared.RemoveOlderThan(cut), want);
  EXPECT_EQ(shared, oracle);
  EXPECT_EQ(stream, before);
}

/// Cuts worth trying on a stream whose keys span [lo, hi]: outside both
/// ends, random ones, and exactly at (and one past) sampled row keys so
/// equal timestamps sit right at the cut.
template <typename Cols>
std::vector<Time> CutsFor(const Cols& s, Rng& rng) {
  std::vector<Time> cuts = {Time{-1}, Time{0}};
  if (s.empty()) return cuts;
  std::span<const Time> t = s.RowTimes();
  std::int64_t lo = t[0].micros();
  std::int64_t hi = lo;
  for (Time x : t) {
    lo = std::min(lo, x.micros());
    if (x != Time::max()) hi = std::max(hi, x.micros());
  }
  cuts.push_back(Time{lo});
  cuts.push_back(Time{hi});
  cuts.push_back(Time{hi + 1});
  for (int k = 0; k < 6; ++k) {
    const Time at = t[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(t.size()) - 1))];
    if (at == Time::max()) continue;
    cuts.push_back(at);
    cuts.push_back(at + Micros(1));
    cuts.push_back(Time{rng.UniformInt(lo, hi)});
  }
  return cuts;
}

TEST(RetentionOracleTest, RandomizedSortedStreams) {
  Rng rng(7);
  for (int trial = 0; trial < 150; ++trial) {
    const DciColumns s =
        SortedDci(rng, static_cast<int>(rng.UniformInt(0, 1500)));
    for (Time cut : CutsFor(s, rng)) ExpectSameEviction(s, cut);
  }
}

TEST(RetentionOracleTest, ArrivalOrderedPacketsStraddlingTheCut) {
  Rng rng(8);
  for (int trial = 0; trial < 150; ++trial) {
    const PacketColumns s =
        ArrivalOrderedPackets(rng, static_cast<int>(rng.UniformInt(0, 1500)));
    for (Time cut : CutsFor(s, rng)) ExpectSameEviction(s, cut);
  }
}

TEST(RetentionOracleTest, AllNoneEqualAndEmpty) {
  DciColumns empty;
  ExpectSameEviction(empty, Time{100});
  EXPECT_EQ(empty.RemoveOlderThan(Time{100}), 0u);

  DciColumns s;
  for (int i = 0; i < 40; ++i) s.push_back(Dci(1000 + 100 * (i / 10), i));
  // Runs of ten equal timestamps at 1000, 1100, 1200, 1300.
  ExpectSameEviction(s, Time{1000});  // none: rows *at* the cut stay
  ExpectSameEviction(s, Time{1100});  // exactly the first run
  ExpectSameEviction(s, Time{1101});
  ExpectSameEviction(s, Time{1300});
  ExpectSameEviction(s, Time{1301});  // all

  DciColumns all = Private(s);
  EXPECT_EQ(all.RemoveOlderThan(Time{5000}), 40u);
  EXPECT_TRUE(all.empty());
  all.push_back(Dci(6000, 1));  // appends after a total eviction
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0], Dci(6000, 1));

  DciColumns none = Private(s);
  EXPECT_EQ(none.RemoveOlderThan(Time{1000}), 0u);
  EXPECT_EQ(none, s);
}

/// Rows [from, to) of `src` appended to `dst`, the way a tail poll does.
template <typename Cols>
void AppendRows(const Cols& src, std::size_t from, std::size_t to,
                Cols& dst) {
  for (std::size_t i = from; i < to; ++i) dst.push_back(src[i]);
}

void ExpectSameDataset(const SessionDataset& a, const SessionDataset& b) {
  EXPECT_EQ(a.begin, b.begin);
  EXPECT_EQ(a.dci, b.dci);
  EXPECT_EQ(a.gnb_log, b.gnb_log);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.stats[0], b.stats[0]);
  EXPECT_EQ(a.stats[1], b.stats[1]);
  ASSERT_EQ(a.ue_rnti.size(), b.ue_rnti.size());
  for (std::size_t i = 0; i < a.ue_rnti.size(); ++i) {
    EXPECT_EQ(a.ue_rnti.TimeAt(i), b.ue_rnti.TimeAt(i));
    EXPECT_EQ(a.ue_rnti.ValueAtIndex(i), b.ue_rnti.ValueAtIndex(i));
  }
}

SessionDataset PrivateCopy(const SessionDataset& d) {
  SessionDataset c = d;
  c.dci = Private(d.dci);
  c.gnb_log = Private(d.gnb_log);
  c.packets = Private(d.packets);
  for (std::size_t i = 0; i < 2; ++i) c.stats[i] = Private(d.stats[i]);
  return c;
}

TEST(RetentionOracleTest, ApplyRetentionOverLivePolls) {
  // A faulted capture (late, duplicated and dropped rows make every raw
  // stream unsorted) replayed in 0.5 s appends, each followed by a cut
  // 3 s behind on the 1 s grid — the live loop's shape. Every third poll
  // holds a copy of the dataset across the cut, as the rolling re-derive
  // does; that copy must not see the eviction.
  sim::SessionConfig cfg;
  cfg.profile = sim::Amarisoft();
  cfg.duration = Seconds(12);
  cfg.seed = 5;
  SessionDataset full = sim::CallSession(cfg).Run();
  FaultSpec spec;
  spec.reorder = 0.05;
  spec.duplicate = 0.03;
  spec.drop = 0.02;
  InjectFaults(full, spec, 3);

  SessionDataset ds;
  ds.cell_name = full.cell_name;
  ds.is_private_cell = full.is_private_cell;
  ds.begin = full.begin;
  ds.end = full.end;
  ds.ue_rnti = full.ue_rnti;
  SessionDataset ref = ds;
  RetentionStats stats;
  RetentionStats ref_stats;

  const int polls = 24;
  auto upto = [polls](std::size_t n, int poll) {
    return n * static_cast<std::size_t>(poll) /
           static_cast<std::size_t>(polls);
  };
  Time cut = full.begin;
  for (int poll = 1; poll <= polls; ++poll) {
    SCOPED_TRACE(::testing::Message() << "poll " << poll);
    for (SessionDataset* d : {&ds, &ref}) {
      AppendRows(full.dci, upto(full.dci.size(), poll - 1),
                 upto(full.dci.size(), poll), d->dci);
      AppendRows(full.gnb_log, upto(full.gnb_log.size(), poll - 1),
                 upto(full.gnb_log.size(), poll), d->gnb_log);
      AppendRows(full.packets, upto(full.packets.size(), poll - 1),
                 upto(full.packets.size(), poll), d->packets);
      for (std::size_t c = 0; c < 2; ++c) {
        AppendRows(full.stats[c], upto(full.stats[c].size(), poll - 1),
                   upto(full.stats[c].size(), poll), d->stats[c]);
      }
    }
    const bool hold = poll % 3 == 0;
    const SessionDataset held = hold ? ds : SessionDataset{};
    const SessionDataset snapshot = hold ? PrivateCopy(ds) : SessionDataset{};
    const Time next = QuantizeRetentionCut(
        full.begin, full.begin + Seconds(0.5 * poll - 3.0));
    if (next > cut) {
      EXPECT_EQ(ApplyRetention(ds, next, stats),
                retention_reference::ApplyRetention(ref, next, ref_stats));
      cut = next;
    }
    NoteRetained(ds, stats);
    NoteRetained(ref, ref_stats);
    ExpectSameDataset(ds, ref);
    if (hold) ExpectSameDataset(held, snapshot);
  }
  EXPECT_GT(stats.cuts, 3);
  EXPECT_GT(stats.evicted_records, 0u);
  EXPECT_EQ(stats.cuts, ref_stats.cuts);
  EXPECT_EQ(stats.evicted_records, ref_stats.evicted_records);
  EXPECT_EQ(stats.peak_retained_records, ref_stats.peak_retained_records);
  EXPECT_EQ(stats.peak_retained_span, ref_stats.peak_retained_span);
}

TEST(RetentionOracleTest, RntiTimelineReanchoredAtTheCut) {
  SessionDataset ds;
  ds.begin = Time{0};
  ds.end = Time{10'000'000};
  ds.ue_rnti.Push(Time{0}, 17);
  ds.ue_rnti.Push(Time{2'000'000}, 23);
  ds.ue_rnti.Push(Time{6'000'000}, 31);
  for (int i = 0; i < 100; ++i) ds.dci.push_back(Dci(i * 100'000, i));
  SessionDataset ref = ds;
  RetentionStats stats;
  RetentionStats ref_stats;
  for (std::int64_t cut : {1'000'000, 3'000'000, 3'000'000, 7'000'000}) {
    EXPECT_EQ(ApplyRetention(ds, Time{cut}, stats),
              retention_reference::ApplyRetention(ref, Time{cut}, ref_stats));
    ExpectSameDataset(ds, ref);
  }
  // The value in force at the last cut survives, re-anchored at it.
  ASSERT_EQ(ds.ue_rnti.size(), 1u);
  EXPECT_EQ(ds.ue_rnti.TimeAt(0), Time{7'000'000});
  EXPECT_EQ(ds.ue_rnti.ValueAtIndex(0), 31);
  EXPECT_EQ(stats.cuts, ref_stats.cuts);
  EXPECT_EQ(stats.evicted_records, ref_stats.evicted_records);
}

}  // namespace
}  // namespace domino::telemetry
