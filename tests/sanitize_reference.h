// Test oracle for the telemetry sanitizer: the record-building
// SanitizeStream and EstimateClockOffsetMs the library shipped before its
// columnar passes, kept verbatim in behaviour (index-list filter,
// std::stable_sort on an indirect time comparator, duplicates compared as
// materialized records). SanitizeDatasetReference mirrors
// telemetry::SanitizeDataset on top of them, so tests can demand byte
// identity between the two on any input.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "telemetry/align.h"
#include "telemetry/sanitize.h"

namespace domino::sanitize_reference {

using telemetry::SanitizeOptions;
using telemetry::SanitizeReport;
using telemetry::SessionDataset;
using telemetry::StreamHealth;
using telemetry::StreamId;

template <typename Cols>
void SanitizeStream(Cols& stream, StreamHealth& h, const SanitizeOptions& opts,
                    Time begin, Time end, bool have_range, bool time_ordered) {
  const std::size_t n = stream.size();
  h.rows_in = n;

  std::vector<std::uint32_t> kept;
  kept.reserve(n);
  bool time_sorted = true;
  Time max_seen{0};
  bool any = false;
  for (std::size_t i = 0; i < n; ++i) {
    const Time t = stream.RowTime(i);
    if (have_range &&
        (t < begin - opts.range_slack || t > end + opts.range_slack)) {
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

  if (!time_sorted) {
    std::stable_sort(kept.begin(), kept.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return stream.RowTime(a) < stream.RowTime(b);
                     });
  }

  std::vector<std::uint32_t> unique;
  unique.reserve(kept.size());
  std::size_t run_start = 0;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    if (i > 0 && stream.RowTime(kept[i]) != stream.RowTime(kept[i - 1])) {
      run_start = unique.size();
    }
    bool dup = false;
    for (std::size_t j = run_start; j < unique.size(); ++j) {
      if (stream.Get(unique[j]) == stream.Get(kept[i])) {
        dup = true;
        break;
      }
    }
    if (dup) {
      ++h.duplicates;
    } else {
      unique.push_back(kept[i]);
    }
  }

  bool identity = unique.size() == n;
  for (std::size_t i = 0; identity && i < n; ++i) {
    identity = unique[i] == i;
  }
  if (!identity) {
    stream.ForEachColumn([&](auto& c) { c.Gather(unique); });
  }
  h.rows_kept = unique.size();

  if (!have_range) return;
  Duration duration = end - begin;
  if (duration <= Duration{0}) return;
  std::int64_t uncovered = 0;
  Time prev = begin;
  auto account = [&](Time t) {
    Duration gap = t - prev;
    if (gap > h.max_gap) h.max_gap = gap;
    if (gap > opts.gap_threshold) {
      ++h.gap_count;
      h.gaps.emplace_back(prev, t);
      uncovered += gap.micros();
    }
    prev = std::max(prev, t);
  };
  for (std::size_t i = 0; i < stream.size(); ++i) {
    account(std::clamp(stream.RowTime(i), begin, end));
  }
  account(end);
  h.coverage = 1.0 - std::min(1.0, static_cast<double>(uncovered) /
                                       static_cast<double>(duration.micros()));
}

inline double EstimateClockOffsetMs(const SessionDataset& ds,
                                    double expected_floor_asymmetry_ms = 0.0) {
  constexpr double kMaxPlausibleOwdMs = 600e3;
  double min_ul = 1e300, min_dl = 1e300;
  for (const auto& p : ds.packets) {
    if (p.lost()) continue;
    double owd = p.one_way_delay().millis();
    if (owd < -kMaxPlausibleOwdMs || owd > kMaxPlausibleOwdMs) continue;
    if (p.dir == Direction::kUplink) {
      min_ul = std::min(min_ul, owd);
    } else {
      min_dl = std::min(min_dl, owd);
    }
  }
  if (min_ul >= 1e300 || min_dl >= 1e300) return 0.0;
  return (min_ul - min_dl - expected_floor_asymmetry_ms) / 2.0;
}

inline SanitizeReport SanitizeDatasetReference(SessionDataset& ds,
                                               const SanitizeOptions& opts) {
  SanitizeReport report;
  for (std::size_t i = 0; i < telemetry::kStreamCount; ++i) {
    report.streams[i].id = static_cast<StreamId>(i);
  }
  report.stream(StreamId::kDci).expected = !ds.dci.empty();
  report.stream(StreamId::kGnbLog).expected =
      ds.is_private_cell || !ds.gnb_log.empty();
  report.stream(StreamId::kPackets).expected = !ds.packets.empty();
  report.stream(StreamId::kStatsUe).expected =
      !ds.stats[telemetry::kUeClient].empty();
  report.stream(StreamId::kStatsRemote).expected =
      !ds.stats[telemetry::kRemoteClient].empty();

  const bool have_range = ds.end > ds.begin;
  auto range_for = [&](StreamId id) {
    return have_range && report.stream(id).expected;
  };
  SanitizeStream(ds.dci, report.stream(StreamId::kDci), opts, ds.begin,
                 ds.end, range_for(StreamId::kDci), true);
  SanitizeStream(ds.gnb_log, report.stream(StreamId::kGnbLog), opts, ds.begin,
                 ds.end, range_for(StreamId::kGnbLog), true);
  SanitizeStream(ds.packets, report.stream(StreamId::kPackets), opts,
                 ds.begin, ds.end, range_for(StreamId::kPackets), false);
  SanitizeStream(ds.stats[telemetry::kUeClient],
                 report.stream(StreamId::kStatsUe), opts, ds.begin, ds.end,
                 range_for(StreamId::kStatsUe), true);
  SanitizeStream(ds.stats[telemetry::kRemoteClient],
                 report.stream(StreamId::kStatsRemote), opts, ds.begin,
                 ds.end, range_for(StreamId::kStatsRemote), true);

  report.skew_ms = sanitize_reference::EstimateClockOffsetMs(ds);
  if (std::fabs(report.skew_ms) > opts.skew_deadband_ms) {
    if (opts.correct_skew) {
      telemetry::AlignClocks(ds, report.skew_ms);
      report.skew_corrected = true;
      std::vector<std::uint32_t> perm(ds.packets.size());
      std::iota(perm.begin(), perm.end(), 0u);
      std::stable_sort(perm.begin(), perm.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return ds.packets.RowTime(a) < ds.packets.RowTime(b);
                       });
      ds.packets.ForEachColumn([&](auto& c) { c.Gather(perm); });
    } else {
      report.skew_suspect = true;
    }
  }
  return report;
}

}  // namespace domino::sanitize_reference
