// Tail-vs-batch parity for the live tailing reader (telemetry/tail.h).
//
// Whatever way a stream file grows, TailingDatasetReader::Poll must ingest
// exactly what the batch Read*CsvInto readers load from the final bytes:
// the same records and the same ReadStats (counts, error kinds, absolute
// row numbers, messages). ReplayTo to the final cursor must rebuild the
// same records. The fixtures mix every row defect the readers classify —
// a bad field, a short row, an over-long line, a broken quote — with
// quoted cells, CRLF endings and blank lines, and are served in two
// appends split at every byte; a larger file puts a CRLF and an over-long
// line across the tail's 64 KiB read blocks.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/io.h"
#include "telemetry/tail.h"
#include "scratch_dir.h"

namespace domino::telemetry {
namespace {

/// A fresh scratch directory, private to this test process.
std::string NewScratchDir() {
  static int next = 0;
  return testing_util::FreshScratchDir("tail_" + std::to_string(next++));
}

void WriteFile(const std::string& path, const std::string& bytes,
               bool append) {
  std::ofstream f(path, std::ios::binary |
                            (append ? std::ios::app : std::ios::trunc));
  f << bytes;
}

/// One stream's schema: its header and well-formed rows (cells), in
/// increasing record time. The rows use numeric spellings the strict
/// parsers accept beyond plain digits ("+5", "007", "-0", "1e3", ".5").
struct StreamCase {
  StreamId id;
  std::string header;
  std::size_t time_col;  ///< Column holding the tail's stop-rule time.
  std::vector<std::vector<std::string>> rows;
};

std::vector<StreamCase> Cases() {
  return {
      {StreamId::kDci,
       "time_us,rnti,dir,prbs,mcs,tbs_bytes,is_retx,harq_process,attempt",
       0,
       {{"1000000", "17", "UL", "50", "20", "1000", "0", "3", "1"},
        {"2000000", "17", "DL", "+5", "007", "96", "1", "-0", "2"},
        {"3000000", "18", "UL", "1", "0", "12", "0", "15", "1"},
        {"4000000", "17", "DL", "273", "27", "99999", "0", "0", "1"},
        {"5000000", "17", "UL", "-1", "-0", "0", "1", "7", "4"},
        {"6000000", "4294967295", "DL", "2", "3", "4", "0", "1", "1"}}},
      {StreamId::kGnbLog, "time_us,rnti,dir,rlc_buffer,rlc_retx,rrc_state", 0,
       {{"1000000", "17", "DL", "4096", "0", "connected"},
        {"2000000", "17", "UL", "+0", "1", "idle"},
        {"3000000", "17", "DL", "007", "0", "transitioning"},
        {"4000000", "17", "DL", "123456789", "1", "connected"},
        {"5000000", "18", "UL", "0", "0", "idle"},
        {"6000000", "17", "DL", "1", "0", "bogus"}}},
      {StreamId::kPackets,
       "id,dir,size_bytes,sent_us,recv_us,is_rtcp,is_audio,frame_id", 3,
       {{"1", "UL", "1200", "1000000", "1015000", "0", "0", "1"},
        {"2", "DL", "80", "2000000", "-1", "1", "0", "0"},
        {"3", "UL", "+1200", "3000000", "3020000", "0", "1", "007"},
        {"4", "DL", "1500", "4000000", "4000000", "0", "0", "2"},
        {"5", "UL", "900", "5000000", "5100000", "0", "0", "3"},
        {"18446744073709551", "DL", "1", "6000000", "6000001", "0", "0",
         "4"}}},
      {StreamId::kStatsUe,
       "time_us,in_fps,out_fps,out_res,jb_ms,target_bps,pushback_bps,"
       "outstanding,cwnd,gcc_state,delay_slope,concealed,frozen",
       0,
       {{"1000000", "29.97", "30", "720", "45.5", "1.2e6", "0", "-0", "12000",
         "normal", "-0.125", "0", "0"},
        {"2000000", "+30", "007", "480", ".5", "1e3", "5.", "-0.0", "1E+4",
         "overuse", "0.333333333333333333", "0.01", "1"},
        {"3000000", "123456789012345", "1234567890123456", "1080", "-7",
         "99999999999999999999", "0.1", "1", "2", "underuse", "-1e-300",
         "0", "0"},
        {"4000000", "0", "0", "0", "0", "0", "0", "0", "0", "normal", "0",
         "0", "0"},
        {"5000000", "-000", "00", "360", "3.25", "250000", "125000", "1500",
         "3000", "normal", "2.5e-3", "0.5", "1"},
        {"6000000", "60", "60", "2160", "1", "2", "3", "4", "5", "overuse",
         "6", "1", "0"}}},
      {StreamId::kStatsRemote,
       "time_us,in_fps,out_fps,out_res,jb_ms,target_bps,pushback_bps,"
       "outstanding,cwnd,gcc_state,delay_slope,concealed,frozen",
       0,
       {{"1000000", "15", "15", "360", "80", "3e5", "0", "0", "4000",
         "normal", "0", "0", "0"},
        {"2000000", "14.5", "15", "360", "82.25", "2.9e5", "1e5", "100",
         "4000", "underuse", "-0.5", "0.02", "0"},
        {"3000000", "1", "2", "3", "4", "5", "6", "7", "8", "normal", "9",
         "0.1", "1"},
        {"4000000", "16", "16", "360", "70", "3.1e5", "0", "0", "4000",
         "overuse", "0.75", "0", "0"},
        {"5000000", "0.000001", "1e-6", "1", "1", "1", "1", "1", "1",
         "normal", "1", "1", "0"},
        {"6000000", "30", "30", "720", "40", "1e6", "0", "0", "8000",
         "normal", "0", "0", "0"}}},
  };
}

std::string Join(const std::vector<std::string>& cells) {
  std::string out;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out += ',';
    out += cells[i];
  }
  return out;
}

/// Input limits small enough that the fixture's over-long line trips them.
InputLimits ParityLimits() {
  InputLimits lim;
  lim.max_line_bytes = 128;
  lim.max_fields = 32;
  return lim;
}

/// The parity fixture for one stream. Blank lines sit after the last
/// malformed row: the tail numbers rows by physical line and the batch
/// reader by non-blank line, so only there do both agree on row numbers.
std::string Fixture(const StreamCase& c) {
  const auto& r = c.rows;
  std::vector<std::string> quoted = r[1];
  quoted[0] = "\"" + quoted[0] + "\"";
  std::vector<std::string> escaped = r[1];  // Unescapes to `<time>"`.
  escaped[c.time_col] = "\"" + escaped[c.time_col] + "\"\"\"";
  std::vector<std::string> bad = r[2];
  bad[0] = "12x";
  const std::vector<std::string> short_row(r[2].begin(), r[2].begin() + 2);
  std::string text = c.header + "\n";
  text += Join(r[0]) + "\n";
  text += Join(quoted) + "\r\n";
  text += Join(escaped) + "\n";
  text += Join(bad) + "\n";
  text += Join(short_row) + "\r\n";
  text += std::string(300, '7') + "\n";
  text += Join(r[3]) + ",\"unterminated\n";
  text += Join(r[2]) + "\r\n";
  text += Join(r[3]) + "\n";
  text += "\n";
  text += Join(r[4]) + "\n";
  text += "\r\n";
  text += Join(r[5]) + "\n";
  return text;
}

bool SameStream(StreamId id, const SessionDataset& a,
                const SessionDataset& b) {
  switch (id) {
    case StreamId::kDci: return a.dci == b.dci;
    case StreamId::kGnbLog: return a.gnb_log == b.gnb_log;
    case StreamId::kPackets: return a.packets == b.packets;
    case StreamId::kStatsUe:
      return a.stats[kUeClient] == b.stats[kUeClient];
    case StreamId::kStatsRemote:
      return a.stats[kRemoteClient] == b.stats[kRemoteClient];
  }
  return false;
}

std::size_t StreamSize(StreamId id, const SessionDataset& ds) {
  switch (id) {
    case StreamId::kDci: return ds.dci.size();
    case StreamId::kGnbLog: return ds.gnb_log.size();
    case StreamId::kPackets: return ds.packets.size();
    case StreamId::kStatsUe: return ds.stats[kUeClient].size();
    case StreamId::kStatsRemote: return ds.stats[kRemoteClient].size();
  }
  return 0;
}

void BatchRead(StreamId id, const std::string& text, const InputLimits& lim,
               SessionDataset& ds, ReadStats& st) {
  std::istringstream is(text);
  switch (id) {
    case StreamId::kDci: ReadDciCsvInto(is, ds.dci, &st, lim); break;
    case StreamId::kGnbLog: ReadGnbLogCsvInto(is, ds.gnb_log, &st, lim); break;
    case StreamId::kPackets: ReadPacketCsvInto(is, ds.packets, &st, lim); break;
    case StreamId::kStatsUe:
      ReadStatsCsvInto(is, ds.stats[kUeClient], &st, lim);
      break;
    case StreamId::kStatsRemote:
      ReadStatsCsvInto(is, ds.stats[kRemoteClient], &st, lim);
      break;
  }
}

std::string Describe(const ReadStats& s) {
  std::ostringstream os;
  os << "total=" << s.rows_total << " kept=" << s.rows_kept
     << " dropped=" << s.rows_dropped;
  for (const TelemetryError& e : s.errors) {
    os << "\n  [" << ToString(e.kind) << "] row " << e.row << ": "
       << e.message;
  }
  return os.str();
}

/// Limits under which the stop rule never fires: every row is ingested.
TailLimits OpenLimits() {
  TailLimits lim;
  lim.limit = Time{1'000'000'000'000};
  lim.max_jump = Duration{1'000'000'000'000};
  lim.input = ParityLimits();
  return lim;
}

TEST(TailParityTest, FixtureExercisesEveryRowDefect) {
  for (const StreamCase& c : Cases()) {
    SessionDataset ds;
    ReadStats st;
    BatchRead(c.id, Fixture(c), ParityLimits(), ds, st);
    EXPECT_EQ(StreamSize(c.id, ds), 6u) << StreamName(c.id) << "\n"
                                        << Describe(st);
    EXPECT_EQ(st.rows_dropped, 5u) << StreamName(c.id) << "\n"
                                   << Describe(st);
    ASSERT_EQ(st.errors.size(), 5u) << StreamName(c.id);
    EXPECT_EQ(st.errors[0].kind, TelemetryErrorKind::kBadField);
    EXPECT_EQ(st.errors[1].kind, TelemetryErrorKind::kBadField);
    EXPECT_EQ(st.errors[2].kind, TelemetryErrorKind::kTruncatedRow);
    EXPECT_EQ(st.errors[3].kind, TelemetryErrorKind::kLimitExceeded);
    EXPECT_EQ(st.errors[4].kind, TelemetryErrorKind::kBadField);
  }
}

TEST(TailParityTest, TwoAppendsAtEverySplitMatchBatch) {
  for (const StreamCase& c : Cases()) {
    const std::string text = Fixture(c);
    SessionDataset want;
    ReadStats want_stats;
    BatchRead(c.id, text, ParityLimits(), want, want_stats);

    const std::string dir = NewScratchDir();
    const std::string path = dir + "/" + StreamFileName(c.id);
    for (std::size_t split = 0; split <= text.size(); ++split) {
      SCOPED_TRACE(std::string(StreamName(c.id)) + " split " +
                   std::to_string(split));
      WriteFile(path, text.substr(0, split), /*append=*/false);
      TailingDatasetReader reader(dir);
      SessionDataset got;
      const TailProgress first = reader.Poll(c.id, got, OpenLimits());
      const bool mid_line = split > 0 && text[split - 1] != '\n';
      EXPECT_EQ(first.partial_tail, mid_line);
      EXPECT_EQ(first.eof, !mid_line);
      EXPECT_EQ(reader.cursor(c.id).offset,
                mid_line ? text.rfind('\n', split - 1) + 1 : split);

      WriteFile(path, text.substr(split), /*append=*/true);
      const TailProgress second = reader.Poll(c.id, got, OpenLimits());
      EXPECT_TRUE(second.eof);
      EXPECT_FALSE(second.partial_tail);

      const TailCursor cur = reader.cursor(c.id);
      EXPECT_EQ(cur.offset, text.size());
      ASSERT_TRUE(SameStream(c.id, got, want));
      ASSERT_EQ(Describe(reader.stats(c.id)), Describe(want_stats));

      TailingDatasetReader resumed(dir);
      SessionDataset replayed;
      resumed.ReplayTo(c.id, replayed, cur, Time{0}, ParityLimits());
      ASSERT_TRUE(SameStream(c.id, replayed, want));
      const TailCursor back = resumed.cursor(c.id);
      EXPECT_EQ(back.offset, cur.offset);
      EXPECT_EQ(back.abs_row, cur.abs_row);
      EXPECT_EQ(back.rows_total, want_stats.rows_total);
      EXPECT_EQ(back.rows_kept, want_stats.rows_kept);
      EXPECT_EQ(back.rows_dropped, want_stats.rows_dropped);
    }
  }
}

TEST(TailParityTest, LinesAcrossReadBlocksMatchBatch) {
  // The tail reads 64 KiB blocks; lay rows across the first boundaries a
  // read from offset 0 meets: a CRLF whose '\r' ends the first block, then
  // an over-long line spanning several blocks.
  constexpr std::size_t kBlock = 64 << 10;
  const StreamCase c = Cases()[0];
  auto row = [&c](std::size_t i) {
    std::vector<std::string> cells = c.rows[i % c.rows.size()];
    cells[0] = std::to_string(1'000'000 + 1'000 * i);
    return Join(cells);
  };
  std::string text = c.header + "\n";
  std::size_t i = 0;
  while (text.size() + 200 < kBlock) text += row(i++) + "\n";
  // A surplus last cell (ignored by the schema) pads the row so that its
  // '\r' is the block's last byte.
  std::string padded = row(i++) + ",";
  padded += std::string(kBlock - 1 - text.size() - padded.size(), 'x');
  text += padded + "\r\n";
  ASSERT_EQ(text[kBlock - 1], '\r');
  ASSERT_EQ(text[kBlock], '\n');
  for (int k = 0; k < 100; ++k) text += row(i++) + "\n";
  const std::size_t long_begin = text.size();
  text += std::string(3 * kBlock, '9') + "\n";
  const std::size_t long_end = text.size();
  while (text.size() < 5 * kBlock) text += row(i++) + "\r\n";

  InputLimits input;
  input.max_line_bytes = 4096;
  SessionDataset want;
  ReadStats want_stats;
  BatchRead(c.id, text, input, want, want_stats);
  ASSERT_EQ(want_stats.rows_dropped, 1u);
  TailLimits lim = OpenLimits();
  lim.input = input;

  std::vector<std::size_t> splits = {0, text.size()};
  for (std::size_t at : {kBlock, long_begin, long_end, long_begin + kBlock,
                         text.size() / 2}) {
    for (std::size_t d = 0; d < 5; ++d) splits.push_back(at + d - 2);
  }
  const std::string dir = NewScratchDir();
  const std::string path = dir + "/" + StreamFileName(c.id);
  for (const std::size_t split : splits) {
    SCOPED_TRACE("split " + std::to_string(split));
    WriteFile(path, text.substr(0, split), /*append=*/false);
    TailingDatasetReader reader(dir);
    SessionDataset got;
    reader.Poll(c.id, got, lim);
    WriteFile(path, text.substr(split), /*append=*/true);
    EXPECT_TRUE(reader.Poll(c.id, got, lim).eof);
    ASSERT_EQ(reader.cursor(c.id).offset, text.size());
    ASSERT_TRUE(SameStream(c.id, got, want));
    ASSERT_EQ(Describe(reader.stats(c.id)), Describe(want_stats));

    TailingDatasetReader resumed(dir);
    SessionDataset replayed;
    resumed.ReplayTo(c.id, replayed, reader.cursor(c.id), Time{0}, input);
    ASSERT_TRUE(SameStream(c.id, replayed, want));
  }
}

TEST(TailParityTest, StopRuleHoldsBackFutureRowsUntilTheLimitMoves) {
  for (const StreamCase& c : Cases()) {
    SCOPED_TRACE(StreamName(c.id));
    const std::string text = Fixture(c);
    SessionDataset want;
    ReadStats want_stats;
    BatchRead(c.id, text, ParityLimits(), want, want_stats);

    const std::string dir = NewScratchDir();
    WriteFile(dir + "/" + StreamFileName(c.id), text, false);
    TailingDatasetReader reader(dir);
    SessionDataset got;
    TailLimits lim = OpenLimits();
    lim.reorder_guard = Duration{250'000};
    lim.max_jump = Duration{10'000'000};
    // Rows are 1 s apart starting at 1 s: a limit of k s + 0.5 s admits
    // every row below k s + 0.75 s and holds back the next one.
    std::size_t prev_offset = 0;
    for (int k = 0; k <= 6; ++k) {
      lim.limit = Time{k * 1'000'000 + 500'000};
      const TailProgress p = reader.Poll(c.id, got, lim);
      EXPECT_EQ(StreamSize(c.id, got), static_cast<std::size_t>(k));
      EXPECT_EQ(p.eof, k == 6);
      const std::size_t offset = reader.cursor(c.id).offset;
      EXPECT_GE(offset, prev_offset);
      if (k < 6) {
        // The held-back row starts exactly at the cursor.
        const std::string held =
            text.substr(offset, text.find('\n', offset) - offset);
        EXPECT_NE(held.find(c.rows[static_cast<std::size_t>(k)][c.time_col]),
                  std::string::npos)
            << held;
        EXPECT_EQ(reader.watermark(c.id).micros(), k * 1'000'000);
      }
      prev_offset = offset;

      // Re-polling with the same limit ingests nothing new.
      const TailProgress again = reader.Poll(c.id, got, lim);
      EXPECT_EQ(again.rows_ingested, 0u);
      EXPECT_EQ(reader.cursor(c.id).offset, offset);
    }
    EXPECT_TRUE(SameStream(c.id, got, want));
    EXPECT_EQ(Describe(reader.stats(c.id)), Describe(want_stats));

    // A resume from every intermediate cursor replays the same prefix.
    TailingDatasetReader resumed(dir);
    SessionDataset replayed;
    resumed.ReplayTo(c.id, replayed, reader.cursor(c.id), Time{0},
                     ParityLimits());
    EXPECT_TRUE(SameStream(c.id, replayed, want));
  }
}

TEST(TailParityTest, CorruptFutureRowsAreIngestedWithoutGatingOrWatermark) {
  const std::string dir = NewScratchDir();
  const std::string text =
      "time_us,rnti,dir,rlc_buffer,rlc_retx,rrc_state\n"
      "1000000,17,DL,1,0,connected\n"
      "900000000000,17,DL,2,0,connected\n"  // Far beyond limit + max_jump.
      "1500000,17,DL,3,0,connected\n"
      "2600000,17,DL,4,0,connected\n";
  WriteFile(dir + "/gnb_log.csv", text, false);
  TailingDatasetReader reader(dir);
  SessionDataset ds;
  TailLimits lim = OpenLimits();
  lim.limit = Time{2'000'000};
  lim.reorder_guard = Duration{0};
  lim.max_jump = Duration{10'000'000};
  const TailProgress p = reader.Poll(StreamId::kGnbLog, ds, lim);
  EXPECT_EQ(p.rows_ingested, 3u);
  EXPECT_FALSE(p.eof);
  EXPECT_EQ(reader.watermark(StreamId::kGnbLog).micros(), 1'500'000);
  EXPECT_EQ(reader.cursor(StreamId::kGnbLog).offset, text.rfind("2600000"));

  // Rows behind the cut are consumed and counted but not ingested.
  TailingDatasetReader resumed(dir);
  SessionDataset replayed;
  resumed.ReplayTo(StreamId::kGnbLog, replayed,
                   reader.cursor(StreamId::kGnbLog), Time{1'200'000});
  ASSERT_EQ(replayed.gnb_log.size(), 2u);
  EXPECT_EQ(replayed.gnb_log[0].rlc_buffer_bytes, 2);
  EXPECT_EQ(replayed.gnb_log[1].rlc_buffer_bytes, 3);
}

TEST(TailParityTest, PartialTailIsDeferredUntilItsNewlineArrives) {
  const std::string dir = NewScratchDir();
  const std::string path = dir + "/dci.csv";
  const std::string head =
      "time_us,rnti,dir,prbs,mcs,tbs_bytes,is_retx,harq_process,attempt\n"
      "1000000,17,UL,50,20,1000,0,3,1\n";
  WriteFile(path, head + "2000000,17,DL,5", false);
  TailingDatasetReader reader(dir);
  SessionDataset ds;
  TailProgress p = reader.Poll(StreamId::kDci, ds, OpenLimits());
  EXPECT_TRUE(p.partial_tail);
  EXPECT_FALSE(p.eof);
  EXPECT_EQ(p.rows_ingested, 1u);
  EXPECT_EQ(reader.cursor(StreamId::kDci).offset, head.size());

  // Still no newline: nothing consumed, nothing counted.
  WriteFile(path, "0,20,96,0,1,1", true);
  p = reader.Poll(StreamId::kDci, ds, OpenLimits());
  EXPECT_TRUE(p.partial_tail);
  EXPECT_EQ(p.rows_ingested, 0u);
  EXPECT_EQ(reader.cursor(StreamId::kDci).offset, head.size());
  EXPECT_EQ(reader.stats(StreamId::kDci).rows_total, 1u);

  WriteFile(path, "\r\n", true);
  p = reader.Poll(StreamId::kDci, ds, OpenLimits());
  EXPECT_FALSE(p.partial_tail);
  EXPECT_TRUE(p.eof);
  ASSERT_EQ(ds.dci.size(), 2u);
  EXPECT_EQ(ds.dci[1].prbs, 50);
  EXPECT_EQ(ds.dci[1].attempt, 1);
  EXPECT_EQ(reader.cursor(StreamId::kDci).abs_row, 3u);
}

}  // namespace
}  // namespace domino::telemetry
