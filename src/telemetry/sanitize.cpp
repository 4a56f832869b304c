#include "telemetry/sanitize.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <span>

#include "telemetry/align.h"

namespace domino::telemetry {

namespace {

/// Record equality (the record's defaulted operator==) read column by
/// column: doubles keep NaN != NaN and -0.0 == 0.0. Enum and bool columns
/// compare as bytes, which matches the record comparison because every
/// producer writes only in-domain bytes there (Append, the CSV parsers, and
/// the .dtb reader's domain check).
template <typename Cols>
bool RowsEqual(const Cols& stream, std::size_t a, std::size_t b) {
  bool eq = true;
  stream.ForEachColumn([&](const auto& c) { eq = eq && c[a] == c[b]; });
  return eq;
}

/// Sorts `rows` (ascending row indices) stably by time, i.e. by
/// (time[row], row). Each row joins the first non-decreasing run whose tail
/// is <= its time; run tails stay strictly decreasing, so that run is found
/// by binary search. Run 0 (rows at or past the running maximum, usually
/// the bulk) is compacted in place at the front of `rows`; the other runs
/// are merged pairwise, the two shortest first, and the result is merged
/// into `rows` from the back. O(n log k) for k runs: a clean capture's
/// packets, in arrival order, form 2-3 send-ordered runs; a faulted stream
/// adds a few short runs of late records.
void StableTimeOrder(std::span<const Time> time,
                     std::vector<std::uint32_t>& rows) {
  auto before = [time](std::uint32_t a, std::uint32_t b) {
    return time[a] < time[b] || (time[a] == time[b] && a < b);
  };
  std::vector<Time> tails;  // tails[r]: last time of run r.
  std::vector<std::vector<std::uint32_t>> runs;  // runs[r - 1]: run r > 0.
  std::size_t head = 0;  // Run 0 is rows[0, head).
  for (const std::uint32_t row : rows) {
    const Time t = time[row];
    if (tails.empty() || tails[0] <= t) {
      if (tails.empty()) tails.emplace_back();
      tails[0] = t;
      rows[head++] = row;  // head <= the read position: safe in place.
      continue;
    }
    const auto r = static_cast<std::size_t>(
        std::partition_point(tails.begin(), tails.end(),
                             [t](Time tail) { return tail > t; }) -
        tails.begin());
    if (r == tails.size()) {
      tails.emplace_back();
      runs.emplace_back();
    }
    tails[r] = t;
    runs[r - 1].push_back(row);
  }
  if (runs.empty()) return;

  // Min-heap of run lengths: merging the two shortest runs first keeps the
  // long ones from being copied once per merge level.
  auto longer = [&](std::size_t a, std::size_t b) {
    return runs[a].size() > runs[b].size();
  };
  std::vector<std::size_t> heap(runs.size());
  std::iota(heap.begin(), heap.end(), std::size_t{0});
  std::make_heap(heap.begin(), heap.end(), longer);
  while (heap.size() > 1) {
    std::pop_heap(heap.begin(), heap.end(), longer);
    const std::size_t a = heap.back();
    heap.pop_back();
    std::pop_heap(heap.begin(), heap.end(), longer);
    const std::size_t b = heap.back();
    std::vector<std::uint32_t> merged(runs[a].size() + runs[b].size());
    std::merge(runs[a].begin(), runs[a].end(), runs[b].begin(),
               runs[b].end(), merged.begin(), before);
    runs[a] = {};
    runs[b] = std::move(merged);
    std::push_heap(heap.begin(), heap.end(), longer);
  }

  // Merge from the back: the write position never passes the unread part
  // of run 0. Keys are unique, so there are no ties to break.
  const std::vector<std::uint32_t>& rest = runs[heap[0]];
  std::size_t i = head;
  std::size_t j = rest.size();
  std::size_t w = rows.size();
  while (j > 0) {
    if (i > 0 && before(rest[j - 1], rows[i - 1])) {
      rows[--w] = rows[--i];
    } else {
      rows[--w] = rest[--j];
    }
  }
}

/// Rewrites every column as rows[0], rows[1], ... unless `rows` is the
/// identity (0, 1, ..., size() - 1).
template <typename Cols>
void GatherRows(Cols& stream, const std::vector<std::uint32_t>& rows) {
  bool identity = rows.size() == stream.size();
  for (std::size_t i = 0; identity && i < rows.size(); ++i) {
    identity = rows[i] == i;
  }
  if (!identity) stream.ForEachColumn([&](auto& c) { c.Gather(rows); });
}

/// Shared sanitize pass over one record stream, over its time column
/// (`RowTimes`: send time for packets, record time elsewhere).
///
/// The first pass walks the clean prefix: rows in range, in time order,
/// and unlike every earlier row of their equal-timestamp run. A clean
/// stream — the common case for healthy captures and the binary load path
/// — ends there, with no index list built and no column touched. From the
/// first out-of-range, out-of-order or duplicate row on, kept row indices
/// are collected, stably re-sorted by time if needed, deduplicated inside
/// equal-timestamp runs (column-wise), and every column is gathered once.
///
/// `time_ordered` says the stream's canonical on-disk order is its
/// timestamp (DCIs, stats, gNB log): displaced records then count as
/// reordered and stale ones (beyond the reorder window) are dropped.
/// Packet records are canonically in *arrival* order — send-time
/// displacement is normal there, so they are sorted without counting.
template <typename Cols>
void SanitizeStream(Cols& stream, StreamHealth& h,
                    const SanitizeOptions& opts, Time begin, Time end,
                    bool have_range, bool time_ordered) {
  const std::size_t n = stream.size();
  h.rows_in = n;
  const Time lo = begin - opts.range_slack;
  const Time hi = end + opts.range_slack;
  auto out_of_range = [&](Time t) { return have_range && (t < lo || t > hi); };

  std::span<const Time> time = stream.RowTimes();
  std::size_t first = 0;      // First row that needs repair.
  std::size_t run_start = 0;  // Start of the current equal-timestamp run.
  for (; first < n; ++first) {
    const Time t = time[first];
    if (out_of_range(t)) break;
    if (first == 0) continue;
    if (t < time[first - 1]) break;
    if (t != time[first - 1]) {
      run_start = first;
      continue;
    }
    bool dup = false;
    for (std::size_t j = run_start; j < first && !dup; ++j) {
      dup = RowsEqual(stream, j, first);
    }
    if (dup) break;
  }

  if (first < n) {
    // Range/staleness filter over the rest of the time column.
    std::vector<std::uint32_t> kept;
    kept.reserve(n);
    kept.resize(first);
    std::iota(kept.begin(), kept.end(), 0u);
    bool time_sorted = true;
    bool any = first > 0;
    Time max_seen = any ? time[first - 1] : Time{0};
    for (std::size_t i = first; i < n; ++i) {
      const Time t = time[i];
      if (out_of_range(t)) {
        ++h.out_of_range;
        continue;
      }
      if (any && t < max_seen) {
        if (time_ordered) {
          if (max_seen - t > opts.reorder_window) {
            ++h.late_dropped;
            continue;
          }
          ++h.reordered;
        }
        time_sorted = false;
      }
      if (!any || t > max_seen) max_seen = t;
      any = true;
      kept.push_back(static_cast<std::uint32_t>(i));
    }

    // Stable reinsertion of late-but-in-window records.
    if (!time_sorted) StableTimeOrder(time, kept);

    // Exact duplicates now sit inside an equal-timestamp run; compare each
    // record against the kept ones of its run.
    std::vector<std::uint32_t> unique;
    unique.reserve(kept.size());
    run_start = 0;
    for (std::size_t i = 0; i < kept.size(); ++i) {
      if (i > 0 && time[kept[i]] != time[kept[i - 1]]) {
        run_start = unique.size();
      }
      bool dup = false;
      for (std::size_t j = run_start; j < unique.size() && !dup; ++j) {
        dup = RowsEqual(stream, unique[j], kept[i]);
      }
      if (dup) {
        ++h.duplicates;
      } else {
        unique.push_back(kept[i]);
      }
    }
    GatherRows(stream, unique);
    time = stream.RowTimes();
  }
  h.rows_kept = stream.size();

  // Coverage: gaps above the threshold between consecutive records and at
  // both session edges. The stream is time-sorted by now, so the gaps are
  // the steps between consecutive clamped times; the largest is found
  // first, and the gaps themselves only listed when one exceeds the
  // threshold.
  if (!have_range) return;
  Duration duration = end - begin;
  if (duration <= Duration{0}) return;
  auto for_each_gap = [&](auto&& fn) {
    Time prev = begin;
    for (const Time t : time) {
      const Time c = std::clamp(t, begin, end);
      fn(prev, c);
      prev = c;
    }
    fn(prev, end);
  };
  Duration max_gap{0};
  for_each_gap([&](Time a, Time b) { max_gap = std::max(max_gap, b - a); });
  h.max_gap = max_gap;
  std::int64_t uncovered = 0;
  if (max_gap > opts.gap_threshold) {
    for_each_gap([&](Time a, Time b) {
      if (b - a <= opts.gap_threshold) return;
      ++h.gap_count;
      h.gaps.emplace_back(a, b);
      uncovered += (b - a).micros();
    });
  }
  h.coverage = 1.0 - std::min(1.0, static_cast<double>(uncovered) /
                                       static_cast<double>(duration.micros()));
}

}  // namespace

bool StreamHealth::clean() const {
  if (!expected) return true;
  return malformed == 0 && duplicates == 0 && reordered == 0 &&
         late_dropped == 0 && out_of_range == 0 && gap_count == 0;
}

bool SanitizeReport::clean() const {
  for (const auto& s : streams) {
    if (!s.clean()) return false;
  }
  return !skew_corrected && !skew_suspect;
}

TraceQuality SanitizeReport::quality() const {
  TraceQuality q;
  q.present = true;
  for (std::size_t i = 0; i < kStreamCount; ++i) {
    // Absent-by-design streams count as fully covered: their chains never
    // fire, and downgrading them would penalise e.g. wired datasets.
    if (!streams[i].expected) continue;
    q.streams[i].coverage = streams[i].coverage;
    q.streams[i].gaps = streams[i].gaps;
  }
  return q;
}

std::string SanitizeReport::Format() const {
  std::string out = "telemetry stream health\n";
  char buf[256];
  for (const auto& h : streams) {
    const char* name = StreamName(h.id);
    if (!h.expected) {
      std::snprintf(buf, sizeof(buf), "  %-12s (absent by design)\n", name);
      out += buf;
      continue;
    }
    std::snprintf(
        buf, sizeof(buf),
        "  %-12s %zu/%zu kept, coverage %5.1f%%, max gap %.2fs | "
        "malformed %zu, dup %zu, reordered %zu, late %zu, "
        "out-of-range %zu, gaps %zu\n",
        name, h.rows_kept, h.rows_in + h.malformed, h.coverage * 100.0,
        h.max_gap.seconds(), h.malformed, h.duplicates, h.reordered,
        h.late_dropped, h.out_of_range, h.gap_count);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  remote clock skew estimate: %+.1f ms (%s)\n", skew_ms,
                skew_corrected   ? "corrected"
                : skew_suspect   ? "NOT corrected; delay events may be "
                                   "biased — rerun with ingest --repair"
                                 : "not corrected");
  out += buf;
  return out;
}

SanitizeReport SanitizeDataset(SessionDataset& ds,
                               const SanitizeOptions& opts) {
  SanitizeReport report;
  for (std::size_t i = 0; i < kStreamCount; ++i) {
    report.streams[i].id = static_cast<StreamId>(i);
  }
  // A stream with no records at all is treated as absent by design (wired
  // datasets carry no DCIs, public cells no gNB log) rather than as a
  // 100%-gap stream. MergeLoadReport re-flags it when the loader saw the
  // file but could not read any of it.
  report.stream(StreamId::kDci).expected = !ds.dci.empty();
  report.stream(StreamId::kGnbLog).expected =
      ds.is_private_cell || !ds.gnb_log.empty();
  report.stream(StreamId::kPackets).expected = !ds.packets.empty();
  report.stream(StreamId::kStatsUe).expected = !ds.stats[kUeClient].empty();
  report.stream(StreamId::kStatsRemote).expected =
      !ds.stats[kRemoteClient].empty();

  bool have_range = ds.end > ds.begin;
  Time begin = ds.begin;
  Time end = ds.end;
  auto range_for = [&](StreamId id) {
    return have_range && report.stream(id).expected;
  };

  SanitizeStream(ds.dci, report.stream(StreamId::kDci), opts, begin, end,
                 range_for(StreamId::kDci), /*time_ordered=*/true);
  SanitizeStream(ds.gnb_log, report.stream(StreamId::kGnbLog), opts, begin,
                 end, range_for(StreamId::kGnbLog), /*time_ordered=*/true);
  SanitizeStream(ds.packets, report.stream(StreamId::kPackets), opts, begin,
                 end, range_for(StreamId::kPackets), /*time_ordered=*/false);
  SanitizeStream(ds.stats[kUeClient], report.stream(StreamId::kStatsUe),
                 opts, begin, end, range_for(StreamId::kStatsUe),
                 /*time_ordered=*/true);
  SanitizeStream(ds.stats[kRemoteClient],
                 report.stream(StreamId::kStatsRemote), opts, begin, end,
                 range_for(StreamId::kStatsRemote), /*time_ordered=*/true);

  report.skew_ms = EstimateClockOffsetMs(ds);
  if (std::fabs(report.skew_ms) > opts.skew_deadband_ms) {
    if (opts.correct_skew) {
      AlignClocks(ds, report.skew_ms);
      report.skew_corrected = true;
      // The correction shifts remote-stamped send times; restore sort
      // order (stable, by send time — PacketColumns::RowTime).
      std::vector<std::uint32_t> rows(ds.packets.size());
      std::iota(rows.begin(), rows.end(), 0u);
      StableTimeOrder(ds.packets.RowTimes(), rows);
      GatherRows(ds.packets, rows);
    } else {
      report.skew_suspect = true;
    }
  }
  return report;
}

void MergeLoadReport(SanitizeReport& report, const DatasetLoadReport& load) {
  for (std::size_t i = 0; i < kStreamCount; ++i) {
    StreamHealth& h = report.streams[i];
    const ReadStats& rs = load.streams[i];
    // A stream the sanitizer classified as absent-by-design was a real file
    // the loader failed on: reinstate it as expected so the defect shows.
    if (!rs.ok() && !h.expected) h.expected = true;
    h.malformed += rs.rows_dropped;
    // A missing or headerless file carries no dropped-row count but is
    // still a defect for a stream that should exist.
    if (h.expected && rs.rows_dropped == 0 && !rs.ok() && h.rows_in == 0) {
      h.malformed += 1;
    }
  }
}

}  // namespace domino::telemetry
