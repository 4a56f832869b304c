// Columnar (SoA) storage for the raw telemetry streams.
//
// Each stream of SessionDataset is stored as parallel per-field columns
// instead of a vector of record structs. The hot consumers —
// BuildDerivedTrace's stream sweeps, the clock-offset estimator, the binary
// wire format — iterate over exactly the fields they need as contiguous
// arrays; the record structs in records.h survive as *row views* that are
// materialized on demand, so emitters (`push_back`) and row-oriented
// passes (the fault injector) keep their natural shape.
//
// Zero-copy ingest and O(1) copies: a Column<T> is a slice of a shared
// buffer — its own growable one, or the arena of an mmap'd binary trace
// file (binfmt.h). Copies share the buffer and the first write clones it
// (copy-on-write at column granularity), so a loaded trace that is only
// analysed never copies its bulk data out of the page cache, and a
// dataset copy costs O(columns). Retention evicts by advancing the slice.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "common/column.h"
#include "common/time.h"
#include "common/types.h"
#include "telemetry/records.h"

namespace domino::telemetry {

using domino::Column;

/// Random-access iterator over a columnar stream, materializing row records
/// by value (range-for written against the old row vectors keeps working).
template <typename Cols, typename Record>
class RowIterator {
 public:
  using iterator_category = std::random_access_iterator_tag;
  using value_type = Record;
  using difference_type = std::ptrdiff_t;
  using pointer = const Record*;
  using reference = Record;

  RowIterator() = default;
  RowIterator(const Cols* c, std::size_t i) : c_(c), i_(i) {}

  Record operator*() const { return c_->Get(i_); }
  Record operator[](difference_type n) const {
    return c_->Get(i_ + static_cast<std::size_t>(n));
  }

  RowIterator& operator++() { ++i_; return *this; }
  RowIterator operator++(int) { auto c = *this; ++i_; return c; }
  RowIterator& operator--() { --i_; return *this; }
  RowIterator operator--(int) { auto c = *this; --i_; return c; }
  RowIterator& operator+=(difference_type n) {
    i_ = static_cast<std::size_t>(static_cast<difference_type>(i_) + n);
    return *this;
  }
  RowIterator& operator-=(difference_type n) { return *this += -n; }
  friend RowIterator operator+(RowIterator it, difference_type n) {
    return it += n;
  }
  friend RowIterator operator-(RowIterator it, difference_type n) {
    return it -= n;
  }
  friend difference_type operator-(RowIterator a, RowIterator b) {
    return static_cast<difference_type>(a.i_) -
           static_cast<difference_type>(b.i_);
  }
  friend bool operator==(RowIterator a, RowIterator b) { return a.i_ == b.i_; }
  friend auto operator<=>(RowIterator a, RowIterator b) {
    return a.i_ <=> b.i_;
  }

 private:
  const Cols* c_ = nullptr;
  std::size_t i_ = 0;
};

/// CRTP mixin supplying the row-compatible API on top of a Derived that
/// implements Get(i), Append(rec), RowTime(i), RowTimes() (the RowTime
/// column as a span), ForEachColumn(visitor), and size().
template <typename Derived, typename Record>
class RowApi {
 public:
  using value_type = Record;
  using const_iterator = RowIterator<Derived, Record>;

  [[nodiscard]] bool empty() const { return d().size() == 0; }
  [[nodiscard]] Record operator[](std::size_t i) const { return d().Get(i); }
  void push_back(const Record& r) { d().Append(r); }

  [[nodiscard]] const_iterator begin() const { return {&d(), 0}; }
  [[nodiscard]] const_iterator end() const { return {&d(), d().size()}; }

  void clear() {
    d().ForEachColumn([](auto& c) { c.clear(); });
  }
  void reserve(std::size_t n) {
    d().ForEachColumn([n](auto& c) { c.reserve(n); });
  }

  /// Materializes the whole stream as row records (for row-oriented passes
  /// like the fault injector).
  [[nodiscard]] std::vector<Record> ToRows() const {
    std::vector<Record> out;
    out.reserve(d().size());
    for (std::size_t i = 0; i < d().size(); ++i) out.push_back(d().Get(i));
    return out;
  }
  void AssignRows(const std::vector<Record>& rows) {
    clear();
    reserve(rows.size());
    for (const Record& r : rows) d().Append(r);
  }

  /// Drops every row with RowTime(i) < cut, keeping the others in order;
  /// returns how many were removed. The rows before the first one at or
  /// past the cut leave by a slice advance (Column::DropFront). Older rows
  /// interleaved with newer ones after it — packets are cut by send time
  /// but stored in arrival order — are compacted out of that mixed zone
  /// only, so the rows past it never move: O(mixed zone) element moves
  /// plus one read of the time column.
  std::size_t RemoveOlderThan(Time cut) {
    const std::span<const Time> t = d().RowTimes();
    const std::size_t n = t.size();
    std::size_t head = 0;
    while (head < n && t[head] < cut) ++head;
    std::size_t late = 0;  // Rows older than the cut past the head.
    for (std::size_t i = head; i < n; ++i) late += t[i] < cut ? 1 : 0;
    if (head == 0 && late == 0) return 0;
    std::vector<unsigned char> keep;  // Over the mixed zone [head, end).
    for (std::size_t i = head, left = late; left > 0; ++i) {
      const bool old = t[i] < cut;
      keep.push_back(old ? 0 : 1);
      left -= old ? 1 : 0;
    }
    d().ForEachColumn([&](auto& c) { c.DropFront(head, keep); });
    return head + late;
  }

  /// Inserts a row at index `idx` (row-materializing; intended for tests
  /// and small fixups, not bulk ingest).
  void InsertAt(std::size_t idx, const Record& r) {
    std::vector<Record> rows = ToRows();
    rows.insert(rows.begin() + static_cast<std::ptrdiff_t>(idx), r);
    AssignRows(rows);
  }

  /// Removes every row matching `pred`; returns how many were removed.
  template <typename Pred>
  std::size_t EraseIf(Pred pred) {
    const std::size_t n = d().size();
    std::vector<unsigned char> keep(n, 1);
    std::size_t removed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (pred(d().Get(i))) {
        keep[i] = 0;
        ++removed;
      }
    }
    if (removed > 0) {
      d().ForEachColumn([&](auto& c) { c.Keep(keep); });
    }
    return removed;
  }

  /// Swaps rows i and j (column-wise).
  void SwapRows(std::size_t i, std::size_t j) {
    d().ForEachColumn([&](auto& c) {
      auto tmp = c[i];
      c.Set(i, c[j]);
      c.Set(j, tmp);
    });
  }

  friend bool operator==(const Derived& a, const Derived& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!(a.Get(i) == b.Get(i))) return false;
    }
    return true;
  }

 private:
  [[nodiscard]] Derived& d() { return static_cast<Derived&>(*this); }
  [[nodiscard]] const Derived& d() const {
    return static_cast<const Derived&>(*this);
  }
};

/// Per-slot PHY/MAC scheduling telemetry (DciRecord), columnar.
class DciColumns : public RowApi<DciColumns, DciRecord> {
 public:
  Column<Time> time;
  Column<std::uint32_t> rnti;
  Column<std::uint8_t> dir;  ///< static_cast<uint8_t>(Direction)
  Column<std::int32_t> prbs;
  Column<std::int32_t> mcs;
  Column<std::int32_t> tbs_bytes;
  Column<std::uint8_t> is_retx;
  Column<std::int32_t> harq_process;
  Column<std::int32_t> attempt;

  [[nodiscard]] std::size_t size() const { return time.size(); }
  [[nodiscard]] Time RowTime(std::size_t i) const { return time[i]; }
  [[nodiscard]] std::span<const Time> RowTimes() const { return time.span(); }

  [[nodiscard]] DciRecord Get(std::size_t i) const {
    DciRecord r;
    r.time = time[i];
    r.rnti = rnti[i];
    r.dir = static_cast<Direction>(dir[i]);
    r.prbs = prbs[i];
    r.mcs = mcs[i];
    r.tbs_bytes = tbs_bytes[i];
    r.is_retx = is_retx[i] != 0;
    r.harq_process = harq_process[i];
    r.attempt = attempt[i];
    return r;
  }
  void Append(const DciRecord& r) {
    time.push_back(r.time);
    rnti.push_back(r.rnti);
    dir.push_back(static_cast<std::uint8_t>(r.dir));
    prbs.push_back(r.prbs);
    mcs.push_back(r.mcs);
    tbs_bytes.push_back(r.tbs_bytes);
    is_retx.push_back(r.is_retx ? 1 : 0);
    harq_process.push_back(r.harq_process);
    attempt.push_back(r.attempt);
  }
  template <typename Fn>
  void ForEachColumn(Fn&& fn) {
    fn(time); fn(rnti); fn(dir); fn(prbs); fn(mcs); fn(tbs_bytes);
    fn(is_retx); fn(harq_process); fn(attempt);
  }
  template <typename Fn>
  void ForEachColumn(Fn&& fn) const {
    fn(time); fn(rnti); fn(dir); fn(prbs); fn(mcs); fn(tbs_bytes);
    fn(is_retx); fn(harq_process); fn(attempt);
  }
};

/// Periodic gNB-side log samples (GnbLogRecord), columnar.
class GnbLogColumns : public RowApi<GnbLogColumns, GnbLogRecord> {
 public:
  Column<Time> time;
  Column<std::uint32_t> rnti;
  Column<std::uint8_t> dir;
  Column<std::int32_t> rlc_buffer_bytes;
  Column<std::uint8_t> rlc_retx;
  Column<std::uint8_t> rrc_state;  ///< static_cast<uint8_t>(RrcState)

  [[nodiscard]] std::size_t size() const { return time.size(); }
  [[nodiscard]] Time RowTime(std::size_t i) const { return time[i]; }
  [[nodiscard]] std::span<const Time> RowTimes() const { return time.span(); }

  [[nodiscard]] GnbLogRecord Get(std::size_t i) const {
    GnbLogRecord r;
    r.time = time[i];
    r.rnti = rnti[i];
    r.dir = static_cast<Direction>(dir[i]);
    r.rlc_buffer_bytes = rlc_buffer_bytes[i];
    r.rlc_retx = rlc_retx[i] != 0;
    r.rrc_state = static_cast<RrcState>(rrc_state[i]);
    return r;
  }
  void Append(const GnbLogRecord& r) {
    time.push_back(r.time);
    rnti.push_back(r.rnti);
    dir.push_back(static_cast<std::uint8_t>(r.dir));
    rlc_buffer_bytes.push_back(r.rlc_buffer_bytes);
    rlc_retx.push_back(r.rlc_retx ? 1 : 0);
    rrc_state.push_back(static_cast<std::uint8_t>(r.rrc_state));
  }
  template <typename Fn>
  void ForEachColumn(Fn&& fn) {
    fn(time); fn(rnti); fn(dir); fn(rlc_buffer_bytes); fn(rlc_retx);
    fn(rrc_state);
  }
  template <typename Fn>
  void ForEachColumn(Fn&& fn) const {
    fn(time); fn(rnti); fn(dir); fn(rlc_buffer_bytes); fn(rlc_retx);
    fn(rrc_state);
  }
};

/// Reconciled packet traces (PacketRecord), columnar. The canonical row
/// order is *arrival* order; RowTime is the send stamp (what the sanitizer
/// sorts and retention cuts by).
class PacketColumns : public RowApi<PacketColumns, PacketRecord> {
 public:
  Column<std::uint64_t> id;
  Column<std::uint8_t> dir;
  Column<std::int32_t> size_bytes;
  Column<Time> sent;
  Column<Time> received;  ///< Time::max() if lost.
  Column<std::uint8_t> is_rtcp;
  Column<std::uint8_t> is_audio;
  Column<std::uint64_t> frame_id;

  [[nodiscard]] std::size_t size() const { return sent.size(); }
  [[nodiscard]] Time RowTime(std::size_t i) const { return sent[i]; }
  [[nodiscard]] std::span<const Time> RowTimes() const { return sent.span(); }

  [[nodiscard]] PacketRecord Get(std::size_t i) const {
    PacketRecord r;
    r.id = id[i];
    r.dir = static_cast<Direction>(dir[i]);
    r.size_bytes = size_bytes[i];
    r.sent = sent[i];
    r.received = received[i];
    r.is_rtcp = is_rtcp[i] != 0;
    r.is_audio = is_audio[i] != 0;
    r.frame_id = frame_id[i];
    return r;
  }
  void Append(const PacketRecord& r) {
    id.push_back(r.id);
    dir.push_back(static_cast<std::uint8_t>(r.dir));
    size_bytes.push_back(r.size_bytes);
    sent.push_back(r.sent);
    received.push_back(r.received);
    is_rtcp.push_back(r.is_rtcp ? 1 : 0);
    is_audio.push_back(r.is_audio ? 1 : 0);
    frame_id.push_back(r.frame_id);
  }
  template <typename Fn>
  void ForEachColumn(Fn&& fn) {
    fn(id); fn(dir); fn(size_bytes); fn(sent); fn(received); fn(is_rtcp);
    fn(is_audio); fn(frame_id);
  }
  template <typename Fn>
  void ForEachColumn(Fn&& fn) const {
    fn(id); fn(dir); fn(size_bytes); fn(sent); fn(received); fn(is_rtcp);
    fn(is_audio); fn(frame_id);
  }
};

/// 50 ms application statistics (WebRtcStatsRecord), columnar.
class StatsColumns : public RowApi<StatsColumns, WebRtcStatsRecord> {
 public:
  Column<Time> time;
  Column<double> inbound_fps;
  Column<double> outbound_fps;
  Column<std::int32_t> outbound_resolution;
  Column<double> jitter_buffer_ms;
  Column<double> target_bitrate_bps;
  Column<double> pushback_bitrate_bps;
  Column<double> outstanding_bytes;
  Column<double> cwnd_bytes;
  Column<std::uint8_t> gcc_state;  ///< static_cast<uint8_t>(NetworkState)
  Column<double> delay_slope;
  Column<double> concealed_ratio;
  Column<std::uint8_t> frozen;

  [[nodiscard]] std::size_t size() const { return time.size(); }
  [[nodiscard]] Time RowTime(std::size_t i) const { return time[i]; }
  [[nodiscard]] std::span<const Time> RowTimes() const { return time.span(); }

  [[nodiscard]] WebRtcStatsRecord Get(std::size_t i) const {
    WebRtcStatsRecord r;
    r.time = time[i];
    r.inbound_fps = inbound_fps[i];
    r.outbound_fps = outbound_fps[i];
    r.outbound_resolution = outbound_resolution[i];
    r.jitter_buffer_ms = jitter_buffer_ms[i];
    r.target_bitrate_bps = target_bitrate_bps[i];
    r.pushback_bitrate_bps = pushback_bitrate_bps[i];
    r.outstanding_bytes = outstanding_bytes[i];
    r.cwnd_bytes = cwnd_bytes[i];
    r.gcc_state = static_cast<NetworkState>(gcc_state[i]);
    r.delay_slope = delay_slope[i];
    r.concealed_ratio = concealed_ratio[i];
    r.frozen = frozen[i] != 0;
    return r;
  }
  void Append(const WebRtcStatsRecord& r) {
    time.push_back(r.time);
    inbound_fps.push_back(r.inbound_fps);
    outbound_fps.push_back(r.outbound_fps);
    outbound_resolution.push_back(r.outbound_resolution);
    jitter_buffer_ms.push_back(r.jitter_buffer_ms);
    target_bitrate_bps.push_back(r.target_bitrate_bps);
    pushback_bitrate_bps.push_back(r.pushback_bitrate_bps);
    outstanding_bytes.push_back(r.outstanding_bytes);
    cwnd_bytes.push_back(r.cwnd_bytes);
    gcc_state.push_back(static_cast<std::uint8_t>(r.gcc_state));
    delay_slope.push_back(r.delay_slope);
    concealed_ratio.push_back(r.concealed_ratio);
    frozen.push_back(r.frozen ? 1 : 0);
  }
  template <typename Fn>
  void ForEachColumn(Fn&& fn) {
    fn(time); fn(inbound_fps); fn(outbound_fps); fn(outbound_resolution);
    fn(jitter_buffer_ms); fn(target_bitrate_bps); fn(pushback_bitrate_bps);
    fn(outstanding_bytes); fn(cwnd_bytes); fn(gcc_state); fn(delay_slope);
    fn(concealed_ratio); fn(frozen);
  }
  template <typename Fn>
  void ForEachColumn(Fn&& fn) const {
    fn(time); fn(inbound_fps); fn(outbound_fps); fn(outbound_resolution);
    fn(jitter_buffer_ms); fn(target_bitrate_bps); fn(pushback_bitrate_bps);
    fn(outstanding_bytes); fn(cwnd_bytes); fn(gcc_state); fn(delay_slope);
    fn(concealed_ratio); fn(frozen);
  }
};

}  // namespace domino::telemetry
