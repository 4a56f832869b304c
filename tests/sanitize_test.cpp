// Unit tests for the telemetry robustness layer: the per-stream sanitizer
// (sanitize.h), the deterministic fault injector (fault_inject.h), the
// TraceQuality window-coverage math, and the tolerant dataset loader.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sanitize_reference.h"
#include "scratch_dir.h"
#include "sim/call_session.h"
#include "sim/cell_config.h"
#include "telemetry/align.h"
#include "telemetry/fault_inject.h"
#include "telemetry/io.h"
#include "telemetry/sanitize.h"

namespace domino {
namespace {

using telemetry::StreamId;

telemetry::DciRecord Dci(double t_s, std::uint32_t rnti = 17) {
  telemetry::DciRecord r;
  r.time = Time{0} + Seconds(t_s);
  r.rnti = rnti;
  r.dir = Direction::kUplink;
  r.prbs = 5;
  r.mcs = 10;
  r.tbs_bytes = 100;
  return r;
}

telemetry::WebRtcStatsRecord Stat(double t_s) {
  telemetry::WebRtcStatsRecord r;
  r.time = Time{0} + Seconds(t_s);
  r.outbound_fps = 30;
  return r;
}

/// A minimal 10 s dataset with a session range and a few records.
telemetry::SessionDataset TinyDataset() {
  telemetry::SessionDataset ds;
  ds.cell_name = "test";
  ds.begin = Time{0};
  ds.end = Time{0} + Seconds(10);
  for (int i = 0; i < 100; ++i) {
    ds.dci.push_back(Dci(0.1 * i));
  }
  for (int i = 0; i < 200; ++i) {
    ds.stats[0].push_back(Stat(0.05 * i));
    ds.stats[1].push_back(Stat(0.05 * i));
  }
  for (int i = 0; i < 100; ++i) {
    telemetry::PacketRecord p;
    p.id = static_cast<std::uint64_t>(i);
    p.dir = i % 2 == 0 ? Direction::kUplink : Direction::kDownlink;
    p.size_bytes = 1200;
    p.sent = Time{0} + Seconds(0.1 * i);
    p.received = p.sent + Millis(20);
    ds.packets.push_back(p);
  }
  return ds;
}

// --- Sanitizer -------------------------------------------------------------------

TEST(SanitizeTest, CleanDatasetIsClean) {
  telemetry::SessionDataset ds = TinyDataset();
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.stream(StreamId::kDci).rows_kept, 100u);
  EXPECT_DOUBLE_EQ(rep.stream(StreamId::kDci).coverage, 1.0);
  // The gNB stream is absent by design on this (non-private) dataset.
  EXPECT_FALSE(rep.stream(StreamId::kGnbLog).expected);
}

TEST(SanitizeTest, ExactDuplicatesRemoved) {
  telemetry::SessionDataset ds = TinyDataset();
  ds.dci.InsertAt(50, ds.dci[50]);
  ds.dci.InsertAt(20, ds.dci[20]);
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds);
  EXPECT_EQ(rep.stream(StreamId::kDci).duplicates, 2u);
  EXPECT_EQ(ds.dci.size(), 100u);
  EXPECT_FALSE(rep.clean());
}

TEST(SanitizeTest, EqualTimestampDistinctRecordsKept) {
  telemetry::SessionDataset ds = TinyDataset();
  telemetry::DciRecord twin = Dci(5.0, /*rnti=*/99);  // same slot, other UE
  ds.dci.InsertAt(51, twin);
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds);
  EXPECT_EQ(rep.stream(StreamId::kDci).duplicates, 0u);
  EXPECT_EQ(rep.stream(StreamId::kDci).late_dropped, 0u);
  EXPECT_EQ(ds.dci.size(), 101u);
}

TEST(SanitizeTest, LateRecordWithinWindowReinserted) {
  telemetry::SessionDataset ds = TinyDataset();
  ds.dci.push_back(Dci(9.5));  // 0.4 s behind the stream head (9.9)
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds);
  EXPECT_EQ(rep.stream(StreamId::kDci).reordered, 1u);
  EXPECT_EQ(rep.stream(StreamId::kDci).late_dropped, 0u);
  for (std::size_t i = 1; i < ds.dci.size(); ++i) {
    EXPECT_LE(ds.dci[i - 1].time, ds.dci[i].time);
  }
}

TEST(SanitizeTest, StaleRecordBeyondWindowDropped) {
  telemetry::SessionDataset ds = TinyDataset();
  ds.dci.push_back(Dci(2.0));  // 7.9 s behind the stream head
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds);
  EXPECT_EQ(rep.stream(StreamId::kDci).late_dropped, 1u);
  EXPECT_EQ(ds.dci.size(), 100u);
}

TEST(SanitizeTest, OutOfRangeTimestampDropped) {
  telemetry::SessionDataset ds = TinyDataset();
  ds.dci.push_back(Dci(4000.0));
  telemetry::DciRecord past = Dci(0.0);
  past.time = Time{0} - Seconds(500);
  ds.dci.InsertAt(0, past);
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds);
  EXPECT_EQ(rep.stream(StreamId::kDci).out_of_range, 2u);
  EXPECT_EQ(ds.dci.size(), 100u);
}

TEST(SanitizeTest, GapDetectedAndCoverageComputed) {
  telemetry::SessionDataset ds = TinyDataset();
  // Remove all DCIs in [3 s, 7 s): a 4 s hole in a 10 s session.
  ds.dci.EraseIf([](const telemetry::DciRecord& r) {
    return r.time >= Time{0} + Seconds(3) && r.time < Time{0} + Seconds(7);
  });
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds);
  const telemetry::StreamHealth& h = rep.stream(StreamId::kDci);
  EXPECT_EQ(h.gap_count, 1u);
  ASSERT_EQ(h.gaps.size(), 1u);
  EXPECT_NEAR(h.coverage, 0.6, 0.02);
  EXPECT_NEAR(h.max_gap.seconds(), 4.0, 0.2);
  EXPECT_FALSE(rep.clean());
}

TEST(SanitizeTest, PacketsInArrivalOrderAreNotDefects) {
  telemetry::SessionDataset ds = TinyDataset();
  // Swap two packets so send order is violated (normal in a reconciled
  // two-host capture).
  ds.packets.SwapRows(10, 11);
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds);
  EXPECT_EQ(rep.stream(StreamId::kPackets).reordered, 0u);
  EXPECT_EQ(rep.stream(StreamId::kPackets).late_dropped, 0u);
  EXPECT_TRUE(rep.clean());
  // ...but they are re-sorted for the monotone consumers.
  for (std::size_t i = 1; i < ds.packets.size(); ++i) {
    EXPECT_LE(ds.packets[i - 1].sent, ds.packets[i].sent);
  }
}

TEST(SanitizeTest, SkewEstimatedAndSuspectWithoutRepair) {
  telemetry::SessionDataset ds = TinyDataset();
  telemetry::FaultSpec spec;
  spec.skew_ms = 40;
  telemetry::InjectFaults(ds, spec, 1);
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds);
  EXPECT_NEAR(rep.skew_ms, 40.0, 5.0);
  EXPECT_TRUE(rep.skew_suspect);
  EXPECT_FALSE(rep.skew_corrected);
  EXPECT_FALSE(rep.clean());
}

TEST(SanitizeTest, SkewCorrectedWhenRequested) {
  telemetry::SessionDataset ds = TinyDataset();
  telemetry::FaultSpec spec;
  spec.skew_ms = 40;
  telemetry::InjectFaults(ds, spec, 1);
  telemetry::SanitizeOptions opts;
  opts.correct_skew = true;
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds, opts);
  EXPECT_TRUE(rep.skew_corrected);
  // After correction a second pass estimates ~0 skew.
  telemetry::SanitizeReport again = telemetry::SanitizeDataset(ds);
  EXPECT_NEAR(again.skew_ms, 0.0, 5.0);
}

TEST(SanitizeTest, QualityGivesUnexpectedStreamsFullCoverage) {
  telemetry::SessionDataset ds = TinyDataset();  // no gNB log
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds);
  telemetry::TraceQuality q = rep.quality();
  EXPECT_TRUE(q.present);
  EXPECT_DOUBLE_EQ(
      q.WindowCoverage(StreamId::kGnbLog, Time{0}, Time{0} + Seconds(5)),
      1.0);
}

// --- TraceQuality window coverage ------------------------------------------------

TEST(TraceQualityTest, WindowCoverageOverlapsGaps) {
  telemetry::TraceQuality q;
  q.present = true;
  auto& dci = q.streams[static_cast<std::size_t>(StreamId::kDci)];
  dci.gaps.emplace_back(Time{0} + Seconds(2), Time{0} + Seconds(4));

  // Window fully inside the gap.
  EXPECT_DOUBLE_EQ(q.WindowCoverage(StreamId::kDci, Time{0} + Seconds(2),
                                    Time{0} + Seconds(4)),
                   0.0);
  // Window half inside.
  EXPECT_NEAR(q.WindowCoverage(StreamId::kDci, Time{0} + Seconds(3),
                               Time{0} + Seconds(5)),
              0.5, 1e-9);
  // Window clear of the gap.
  EXPECT_DOUBLE_EQ(q.WindowCoverage(StreamId::kDci, Time{0} + Seconds(5),
                                    Time{0} + Seconds(7)),
                   1.0);
  // Absent quality info => fully covered.
  telemetry::TraceQuality none;
  EXPECT_DOUBLE_EQ(none.WindowCoverage(StreamId::kDci, Time{0},
                                       Time{0} + Seconds(1)),
                   1.0);
}

// --- Fault injector --------------------------------------------------------------

TEST(FaultInjectTest, SameSeedSameCorruption) {
  telemetry::FaultSpec spec;
  spec.drop = 0.1;
  spec.duplicate = 0.05;
  spec.reorder = 0.05;
  telemetry::SessionDataset a = TinyDataset();
  telemetry::SessionDataset b = TinyDataset();
  telemetry::FaultSummary sa = telemetry::InjectFaults(a, spec, 99);
  telemetry::FaultSummary sb = telemetry::InjectFaults(b, spec, 99);
  EXPECT_EQ(sa.total(), sb.total());
  ASSERT_EQ(a.dci.size(), b.dci.size());
  for (std::size_t i = 0; i < a.dci.size(); ++i) {
    EXPECT_EQ(a.dci[i], b.dci[i]);
  }
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (std::size_t i = 0; i < a.packets.size(); ++i) {
    EXPECT_EQ(a.packets[i], b.packets[i]);
  }
}

TEST(FaultInjectTest, DifferentSeedsDiffer) {
  telemetry::FaultSpec spec;
  spec.drop = 0.2;
  telemetry::SessionDataset a = TinyDataset();
  telemetry::SessionDataset b = TinyDataset();
  telemetry::InjectFaults(a, spec, 1);
  telemetry::InjectFaults(b, spec, 2);
  EXPECT_TRUE(a.dci != b.dci || a.stats[0] != b.stats[0]);
}

TEST(FaultInjectTest, CountsMatchSpecRoughly) {
  telemetry::FaultSpec spec;
  spec.drop = 0.25;
  telemetry::SessionDataset ds = TinyDataset();
  std::size_t before = ds.dci.size() + ds.packets.size() +
                       ds.stats[0].size() + ds.stats[1].size();
  telemetry::FaultSummary sum = telemetry::InjectFaults(ds, spec, 5);
  std::size_t after = ds.dci.size() + ds.packets.size() +
                      ds.stats[0].size() + ds.stats[1].size();
  EXPECT_EQ(before - after, sum.total());
  // 25% of 600 records, within generous tolerance.
  EXPECT_GT(sum.total(), 90u);
  EXPECT_LT(sum.total(), 220u);
}

TEST(FaultInjectTest, GapRemovesWindowOfRecords) {
  telemetry::FaultSpec spec;
  spec.gap = Seconds(4);
  spec.gap_at = 0.5;
  telemetry::SessionDataset ds = TinyDataset();
  telemetry::FaultSummary sum = telemetry::InjectFaults(ds, spec, 1);
  EXPECT_GT(sum.total(), 0u);
  // No surviving DCI inside the injected hole.
  std::size_t inside = 0;
  for (const auto& r : ds.dci) {
    if (r.time >= Time{0} + Seconds(3.5) &&
        r.time < Time{0} + Seconds(6.5)) {
      ++inside;
    }
  }
  EXPECT_EQ(inside, 0u);
}

TEST(FaultInjectTest, TruncationCutsTail) {
  telemetry::FaultSpec spec;
  spec.truncate_tail = 0.3;
  telemetry::SessionDataset ds = TinyDataset();
  telemetry::InjectFaults(ds, spec, 1);
  for (const auto& r : ds.dci) {
    EXPECT_LT(r.time, Time{0} + Seconds(7.01));
  }
}

// --- Loader + sanitizer integration ----------------------------------------------

TEST(LoadReportTest, MalformedRowsFoldIntoHealth) {
  telemetry::SessionDataset ds = TinyDataset();
  telemetry::DatasetLoadReport load;
  load.stream(StreamId::kDci).rows_total = 102;
  load.stream(StreamId::kDci).rows_kept = 100;
  load.stream(StreamId::kDci).rows_dropped = 2;
  load.stream(StreamId::kDci).Add(telemetry::TelemetryErrorKind::kBadField,
                                  5, "bad");
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds);
  telemetry::MergeLoadReport(rep, load);
  EXPECT_EQ(rep.stream(StreamId::kDci).malformed, 2u);
  EXPECT_FALSE(rep.clean());
}

TEST(LoadReportTest, UnreadableExpectedStreamFlagged) {
  telemetry::SessionDataset ds = TinyDataset();
  ds.dci.clear();  // loader kept nothing
  telemetry::DatasetLoadReport load;
  load.stream(StreamId::kDci)
      .Add(telemetry::TelemetryErrorKind::kMissingFile, 0, "dci.csv");
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds);
  telemetry::MergeLoadReport(rep, load);
  EXPECT_TRUE(rep.stream(StreamId::kDci).expected);
  EXPECT_GE(rep.stream(StreamId::kDci).malformed, 1u);
  EXPECT_FALSE(rep.clean());
}

TEST(LoadDatasetTest, RoundTripWithCorruptionSurvives) {
  namespace fs = std::filesystem;
  const fs::path dir = testing_util::FreshScratchDir("sanitize_ds");
  telemetry::SessionDataset ds = TinyDataset();
  telemetry::SaveDataset(ds, dir.string());

  // Vandalise dci.csv: inject garbage rows between good ones.
  {
    std::ifstream in(dir / "dci.csv");
    std::stringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    in.close();
    std::ofstream out(dir / "dci.csv");
    out << text << "garbage,row\nnot,even,numeric,a,b,c,d,e,f\n";
  }
  fs::remove(dir / "stats_remote.csv");  // and lose a whole stream

  telemetry::DatasetLoadReport report;
  telemetry::SessionDataset loaded;
  EXPECT_NO_THROW(loaded = telemetry::LoadDataset(dir.string(), &report));
  EXPECT_EQ(loaded.dci.size(), 100u);  // good rows all kept
  EXPECT_EQ(report.stream(StreamId::kDci).rows_dropped, 2u);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.stream(StreamId::kStatsRemote).ok());
  EXPECT_FALSE(report.Format().empty());
}

TEST(SanitizeTest, FormatMentionsEveryStream) {
  telemetry::SessionDataset ds = TinyDataset();
  telemetry::SanitizeReport rep = telemetry::SanitizeDataset(ds);
  std::string text = rep.Format();
  for (const char* name :
       {"dci", "gnb_log", "packets", "stats_ue", "stats_remote", "skew"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

// --- Oracle: the record-building sanitizer ---------------------------------------
//
// sanitize_reference.h keeps the sanitizer as it was before its columnar
// passes. On every input below, the library must leave every column
// byte-identical to it and report identical health, field by field.

/// Every column of one stream as raw bytes, in ForEachColumn order.
template <typename Cols>
std::vector<std::string> ColumnBytes(const Cols& stream) {
  std::vector<std::string> out;
  stream.ForEachColumn([&](const auto& c) {
    out.emplace_back(reinterpret_cast<const char*>(c.data()),
                     c.size() * sizeof(c[0]));
  });
  return out;
}

std::vector<std::vector<std::string>> DatasetBytes(
    const telemetry::SessionDataset& ds) {
  return {ColumnBytes(ds.dci), ColumnBytes(ds.gnb_log),
          ColumnBytes(ds.packets), ColumnBytes(ds.stats[0]),
          ColumnBytes(ds.stats[1])};
}

std::uint64_t Bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void ExpectHealthEqual(const telemetry::StreamHealth& a,
                       const telemetry::StreamHealth& b,
                       const std::string& label) {
  SCOPED_TRACE(label + " / " + telemetry::StreamName(a.id));
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.expected, b.expected);
  EXPECT_EQ(a.rows_in, b.rows_in);
  EXPECT_EQ(a.rows_kept, b.rows_kept);
  EXPECT_EQ(a.malformed, b.malformed);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.reordered, b.reordered);
  EXPECT_EQ(a.late_dropped, b.late_dropped);
  EXPECT_EQ(a.out_of_range, b.out_of_range);
  EXPECT_EQ(Bits(a.coverage), Bits(b.coverage));
  EXPECT_EQ(a.max_gap, b.max_gap);
  EXPECT_EQ(a.gap_count, b.gap_count);
  EXPECT_EQ(a.gaps, b.gaps);
}

/// Sanitizes one copy of `input` with the library and one with the
/// reference, and demands identical columns, health, and report text.
void ExpectMatchesReference(const telemetry::SessionDataset& input,
                            const std::string& label,
                            const telemetry::SanitizeOptions& opts = {}) {
  EXPECT_EQ(Bits(telemetry::EstimateClockOffsetMs(input)),
            Bits(sanitize_reference::EstimateClockOffsetMs(input)))
      << label;
  telemetry::SessionDataset got = input;
  telemetry::SessionDataset want = input;
  const telemetry::SanitizeReport rg = telemetry::SanitizeDataset(got, opts);
  const telemetry::SanitizeReport rw =
      sanitize_reference::SanitizeDatasetReference(want, opts);
  EXPECT_TRUE(DatasetBytes(got) == DatasetBytes(want)) << label;
  for (std::size_t i = 0; i < telemetry::kStreamCount; ++i) {
    ExpectHealthEqual(rg.streams[i], rw.streams[i], label);
  }
  EXPECT_EQ(Bits(rg.skew_ms), Bits(rw.skew_ms)) << label;
  EXPECT_EQ(rg.skew_corrected, rw.skew_corrected) << label;
  EXPECT_EQ(rg.skew_suspect, rw.skew_suspect) << label;
  EXPECT_EQ(rg.Format(), rw.Format()) << label;
}

telemetry::SessionDataset Session(const sim::CellProfile& cell,
                                  double seconds, std::uint64_t seed) {
  sim::SessionConfig cfg;
  cfg.profile = cell;
  cfg.duration = Seconds(seconds);
  cfg.seed = seed;
  sim::CallSession session(cfg);
  return session.Run();
}

telemetry::SanitizeOptions Repairing() {
  telemetry::SanitizeOptions opts;
  opts.correct_skew = true;
  return opts;
}

TEST(SanitizeOracleTest, CleanSessionsOfAllFourCells) {
  const std::pair<const char*, sim::CellProfile> cells[] = {
      {"tmobile_tdd100", sim::TMobileTdd100()},
      {"tmobile_fdd15", sim::TMobileFdd15()},
      {"amarisoft", sim::Amarisoft()},
      {"mosolabs", sim::Mosolabs()}};
  for (const auto& [name, cell] : cells) {
    const telemetry::SessionDataset ds = Session(cell, 60, 7);
    ExpectMatchesReference(ds, name);
    ExpectMatchesReference(ds, std::string(name) + "/repair", Repairing());
  }
}

TEST(SanitizeOracleTest, RobustnessFaultClassesAndMixes) {
  const telemetry::SessionDataset clean = Session(sim::Amarisoft(), 20, 5);
  std::vector<std::pair<std::string, telemetry::FaultSpec>> specs;
  auto add = [&](const char* name, auto set) {
    telemetry::FaultSpec s;
    set(s);
    specs.emplace_back(name, s);
  };
  add("drop", [](auto& s) { s.drop = 0.05; });
  add("duplicate", [](auto& s) { s.duplicate = 0.05; });
  add("reorder", [](auto& s) { s.reorder = 0.05; });
  add("corrupt_time", [](auto& s) { s.corrupt_time = 0.01; });
  add("truncate", [](auto& s) { s.truncate_tail = 0.2; });
  add("gap", [](auto& s) { s.gap = Seconds(4); });
  add("skew_drift", [](auto& s) {
    s.skew_ms = 40;
    s.drift_ppm = 50;
  });
  add("kitchen_sink", [](auto& s) {
    s.drop = 0.05;
    s.duplicate = 0.05;
    s.reorder = 0.05;
    s.corrupt_time = 0.01;
    s.gap = Seconds(3);
    s.skew_ms = 20;
  });
  add("mix_5pct", [](auto& s) {
    s.drop = 0.05;
    s.duplicate = 0.05;
    s.reorder = 0.05;
    s.corrupt_time = 0.01;
  });
  for (const auto& [name, spec] : specs) {
    for (std::uint64_t seed : {1ull, 2ull}) {
      telemetry::SessionDataset ds = clean;
      telemetry::InjectFaults(ds, spec, seed);
      const std::string label = name + "/" + std::to_string(seed);
      ExpectMatchesReference(ds, label);
      ExpectMatchesReference(ds, label + "/repair", Repairing());
    }
  }
}

TEST(SanitizeOracleTest, DuplicatesInterleavedInOneTimestamp) {
  telemetry::SessionDataset ds = TinyDataset();
  // Slot 5.0 s: A B A C B A D, where A is the row already there.
  const telemetry::DciRecord a = Dci(5.0);
  const telemetry::DciRecord b = Dci(5.0, 21);
  telemetry::DciRecord c = Dci(5.0, 21);
  c.is_retx = true;
  telemetry::DciRecord d = Dci(5.0);
  d.dir = Direction::kDownlink;
  std::size_t at = 51;
  for (const auto& r : {b, a, c, b, a, d}) ds.dci.InsertAt(at++, r);
  ExpectMatchesReference(ds, "clean prefix");
  // The same run behind an earlier defect (so the repair pass sees it).
  ds.dci.InsertAt(10, ds.dci[10]);
  ExpectMatchesReference(ds, "after a defect");
  // ...and delivered late, within the reorder window.
  telemetry::SessionDataset late = TinyDataset();
  for (const auto& r : {a, b, a, c, b, a, d}) late.dci.InsertAt(58, r);
  ExpectMatchesReference(late, "late run");
}

TEST(SanitizeOracleTest, ReverseSortedPackets) {
  telemetry::SessionDataset ds = TinyDataset();
  telemetry::SessionDataset rev = ds;
  rev.packets.clear();
  for (std::size_t i = ds.packets.size(); i-- > 0;) {
    rev.packets.push_back(ds.packets[i]);
  }
  // Equal send times within the reversal exercise the stable tie-break.
  telemetry::PacketRecord twin = ds.packets[40];
  twin.id = 1000;
  rev.packets.InsertAt(30, twin);
  rev.packets.InsertAt(70, ds.packets[40]);
  ExpectMatchesReference(rev, "reversed");
  ExpectMatchesReference(rev, "reversed/repair", Repairing());
}

TEST(SanitizeOracleTest, ThreeInterleavedSendOrderedSources) {
  telemetry::SessionDataset ds = TinyDataset();
  ds.packets.clear();
  // Three flows, each in send order, arriving interleaved with different
  // delays: arrival order is not send order.
  Rng rng(13);
  struct Flow {
    double next_s;
    double period_s;
    Direction dir;
  };
  Flow flows[3] = {{0.00, 0.020, Direction::kUplink},
                   {0.01, 0.033, Direction::kDownlink},
                   {0.00, 0.050, Direction::kDownlink}};
  std::uint64_t id = 0;
  for (int i = 0; i < 600; ++i) {
    Flow& f = flows[rng.UniformInt(0, 2)];
    telemetry::PacketRecord p;
    p.id = id++;
    p.dir = f.dir;
    p.size_bytes = 1000 + static_cast<int>(id % 7);
    p.sent = Time{0} + Seconds(f.next_s);
    p.received = p.sent + Millis(15 + static_cast<std::int64_t>(id % 5));
    if (id % 17 == 0) p.received = Time::max();
    f.next_s += f.period_s;
    ds.packets.push_back(p);
  }
  ExpectMatchesReference(ds, "three sources");
}

TEST(SanitizeOracleTest, StatsWithNanAndSignedZero) {
  telemetry::SessionDataset ds = TinyDataset();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  telemetry::WebRtcStatsRecord with_nan = Stat(3.0);
  with_nan.delay_slope = nan;
  telemetry::WebRtcStatsRecord pos_zero = Stat(4.0);
  pos_zero.jitter_buffer_ms = 0.0;
  telemetry::WebRtcStatsRecord neg_zero = pos_zero;
  neg_zero.jitter_buffer_ms = -0.0;
  // NaN rows never equal each other; -0.0 equals 0.0 (first one kept).
  ds.stats[0].InsertAt(61, with_nan);
  ds.stats[0].InsertAt(62, with_nan);
  ds.stats[0].InsertAt(82, neg_zero);
  ds.stats[0].InsertAt(83, pos_zero);
  ds.stats[0].InsertAt(84, pos_zero);
  ExpectMatchesReference(ds, "nan and signed zero");
  // Also behind a reordered row.
  ds.stats[1].InsertAt(20, Stat(0.5));
  ds.stats[1].InsertAt(61, with_nan);
  ds.stats[1].InsertAt(61, with_nan);
  ds.stats[1].InsertAt(90, pos_zero);
  ds.stats[1].InsertAt(90, neg_zero);
  ExpectMatchesReference(ds, "nan and signed zero, repaired");
}

TEST(SanitizeOracleTest, RowsExactlyAtTheRangeEdges) {
  const telemetry::SanitizeOptions opts;
  telemetry::SessionDataset ds = TinyDataset();
  telemetry::DciRecord lo = Dci(0.0);
  lo.time = ds.begin - opts.range_slack;
  telemetry::DciRecord hi = Dci(0.0);
  hi.time = ds.end + opts.range_slack;
  ds.dci.InsertAt(0, lo);
  ds.dci.push_back(hi);
  ExpectMatchesReference(ds, "at the edges");
  telemetry::DciRecord below = lo;
  below.time = lo.time - Micros(1);
  telemetry::DciRecord above = hi;
  above.time = hi.time + Micros(1);
  ds.dci.InsertAt(0, below);
  ds.dci.push_back(above);
  ds.packets.InsertAt(5, [&] {
    telemetry::PacketRecord p = ds.packets[5];
    p.sent = above.time;
    return p;
  }());
  ExpectMatchesReference(ds, "one microsecond outside");
}

TEST(SanitizeOracleTest, NoSessionRange) {
  telemetry::SessionDataset ds = TinyDataset();
  ds.end = ds.begin;  // have_range == false
  ds.dci.InsertAt(30, ds.dci[30]);
  ds.dci.push_back(Dci(4000.0));
  ds.dci.push_back(Dci(2.0));
  ds.packets.SwapRows(3, 4);
  ExpectMatchesReference(ds, "no range");
}

TEST(SanitizeOracleTest, EmptyStreams) {
  telemetry::SessionDataset empty;
  ExpectMatchesReference(empty, "empty dataset");
  telemetry::SessionDataset ds = TinyDataset();
  ds.dci.clear();
  ds.stats[1].clear();
  ds.is_private_cell = true;  // gNB log expected, yet empty
  ExpectMatchesReference(ds, "some streams empty");
}

}  // namespace
}  // namespace domino
