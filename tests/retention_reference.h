// Test oracle for bounded-memory retention: the keep-mask RemoveOlderThan
// and the ApplyRetention the library shipped before eviction became a
// slice advance, kept verbatim in behaviour (one mask over every row, then
// every column compacted through Column::Keep). Tests demand identical
// columns, counts and RetentionStats between the two on any input.
#pragma once

#include <cstddef>
#include <vector>

#include "telemetry/retention.h"

namespace domino::retention_reference {

using telemetry::RetentionStats;
using telemetry::SessionDataset;

/// Drops every row with RowTime(i) < cut; returns how many were removed.
template <typename Cols>
std::size_t RemoveOlderThan(Cols& stream, Time cut) {
  const std::size_t n = stream.size();
  std::vector<unsigned char> keep(n, 1);
  std::size_t removed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (stream.RowTime(i) < cut) {
      keep[i] = 0;
      ++removed;
    }
  }
  if (removed > 0) {
    stream.ForEachColumn([&](auto& c) { c.Keep(keep); });
  }
  return removed;
}

inline std::size_t ApplyRetention(SessionDataset& ds, Time cut,
                                  RetentionStats& stats) {
  if (cut <= ds.begin) return 0;
  std::size_t evicted = 0;
  evicted += RemoveOlderThan(ds.dci, cut);
  evicted += RemoveOlderThan(ds.gnb_log, cut);
  evicted += RemoveOlderThan(ds.packets, cut);
  for (auto& stream : ds.stats) {
    evicted += RemoveOlderThan(stream, cut);
  }
  if (!ds.ue_rnti.empty() && ds.ue_rnti.front().time < cut) {
    double at_cut = ds.ue_rnti.ValueAt(cut, -1.0);
    TimeSeries<double> trimmed;
    if (at_cut >= 0) trimmed.Push(cut, at_cut);
    for (const auto& s : ds.ue_rnti) {
      if (s.time >= cut) trimmed.Push(s.time, s.value);
    }
    evicted += ds.ue_rnti.size() >= trimmed.size()
                   ? ds.ue_rnti.size() - trimmed.size()
                   : 0;
    ds.ue_rnti = std::move(trimmed);
  }
  ds.begin = cut;
  if (evicted > 0) {
    ++stats.cuts;
    stats.evicted_records += evicted;
  }
  return evicted;
}

}  // namespace domino::retention_reference
