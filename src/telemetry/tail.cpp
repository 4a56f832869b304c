#include "telemetry/tail.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace domino::telemetry {

namespace {

// Backoff caps: a persistently missing file is retried every
// kMaxBackoffPolls polls instead of every poll.
constexpr long kMaxBackoffShift = 6;
constexpr long kMaxBackoffPolls = 64;

/// Bytes read from a stream file per read call.
constexpr std::size_t kBlockBytes = 64 << 10;

/// Splits a stream into '\n'-terminated lines, reading it in kBlockBytes
/// blocks and finding line ends with memchr. Each Next() has
/// BoundedGetline's exact LineRead semantics: a line may straddle blocks,
/// only its first `max_line_bytes` bytes are kept (truncated), raw_len
/// counts all of them, and a last line without '\n' comes back with
/// hit_eof so the caller can defer it.
class BlockLineReader {
 public:
  /// `block` is the caller's buffer, sized kBlockBytes on first use.
  BlockLineReader(std::istream& is, std::vector<char>& block,
                  std::size_t max_line_bytes)
      : is_(is), max_(max_line_bytes), block_(block) {
    block_.resize(kBlockBytes);
  }

  LineRead Next(std::string& line) {
    line.clear();
    LineRead r;
    for (;;) {
      if (pos_ == end_ && !Refill()) {
        r.hit_eof = true;
        r.got = r.raw_len > 0;
        return r;
      }
      const char* start = block_.data() + pos_;
      const std::size_t avail = end_ - pos_;
      const auto* nl =
          static_cast<const char*>(std::memchr(start, '\n', avail));
      const std::size_t n =
          nl != nullptr ? static_cast<std::size_t>(nl - start) : avail;
      const std::size_t room = max_ - line.size();
      if (n > room) r.truncated = true;
      line.append(start, std::min(n, room));
      r.raw_len += n;
      pos_ += n;
      if (nl != nullptr) {
        ++pos_;
        r.got = true;
        return r;
      }
    }
  }

 private:
  bool Refill() {
    if (eof_) return false;
    is_.read(block_.data(), static_cast<std::streamsize>(kBlockBytes));
    pos_ = 0;
    end_ = static_cast<std::size_t>(is_.gcount());
    eof_ = end_ < kBlockBytes;  // Regular files read short only at EOF.
    return end_ > 0;
  }

  std::istream& is_;
  std::size_t max_;
  std::vector<char>& block_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
  bool eof_ = false;
};

/// Parses one data line into `rec` the way the batch readers do: the
/// trailing '\r' is dropped, a blank line yields nothing and is not
/// counted, anything else goes through ParseCsvRow, which counts and
/// diagnoses a dropped row in `stats` at `row`. True iff `rec` was filled.
template <typename Rec>
bool ParseDataLine(std::string& line, bool truncated, std::size_t row,
                   const InputLimits& limits,
                   std::vector<std::string_view>& cells, ReadStats& stats,
                   Rec& rec) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line.empty() && !truncated) return false;
  return ParseCsvRow(line, truncated, row, limits, cells, stats, rec) ==
         RowParse::kRecord;
}

/// Calls `fn(columns, time_of)` with the columns of stream `id` in `ds` and
/// the record time the stop rule reads: the one place the tail maps stream
/// ids to record types.
template <typename Fn>
void WithStream(StreamId id, SessionDataset& ds, Fn&& fn) {
  const auto time = [](const auto& r) { return r.time; };
  switch (id) {
    case StreamId::kDci: return fn(ds.dci, time);
    case StreamId::kGnbLog: return fn(ds.gnb_log, time);
    case StreamId::kPackets:
      return fn(ds.packets, [](const PacketRecord& r) { return r.sent; });
    case StreamId::kStatsUe: return fn(ds.stats[kUeClient], time);
    case StreamId::kStatsRemote: return fn(ds.stats[kRemoteClient], time);
  }
}

/// The record type stored in a columnar stream.
template <typename Cols>
using RecordOf = typename std::remove_reference_t<Cols>::value_type;

}  // namespace

const char* StreamFileName(StreamId id) {
  switch (id) {
    case StreamId::kDci: return "dci.csv";
    case StreamId::kGnbLog: return "gnb_log.csv";
    case StreamId::kPackets: return "packets.csv";
    case StreamId::kStatsUe: return "stats_ue.csv";
    case StreamId::kStatsRemote: return "stats_remote.csv";
  }
  return "?";
}

TailingDatasetReader::TailingDatasetReader(std::string dir)
    : dir_(std::move(dir)) {}

bool TailingDatasetReader::PollMeta(SessionDataset& ds) {
  if (meta_ready_) return true;
  std::ifstream f(dir_ + "/meta.csv");
  if (!f) return false;
  ReadStats stats;  // Pre-ready parse noise is transient; discard it.
  SessionDataset parsed;
  if (!ReadMetaCsv(f, parsed, stats)) return false;
  ds.cell_name = parsed.cell_name;
  ds.is_private_cell = parsed.is_private_cell;
  ds.begin = parsed.begin;
  ds.end = parsed.end;
  ds.ue_rnti = parsed.ue_rnti;
  meta_ready_ = true;
  return true;
}

TailProgress TailingDatasetReader::Poll(StreamId id, SessionDataset& ds,
                                        const TailLimits& lim) {
  StreamState& st = state(id);
  TailProgress p;

  ++st.attempts;
  if (st.attempts < st.next_attempt) {
    p.backed_off = true;
    return p;
  }

  const std::string path = dir_ + "/" + StreamFileName(id);
  std::ifstream f(path, std::ios::binary);
  std::streamoff size = -1;
  if (f) {
    f.seekg(0, std::ios::end);
    size = f.tellg();
  }
  if (!f || size < 0 || static_cast<std::size_t>(size) < st.offset) {
    // Absent, unreadable, or shrunk (a rewritten file would desync our
    // offset — never re-ingest): transient failure, back off exponentially.
    ++st.misses;
    ++st.retries;
    if (st.misses == 1) {
      st.stats.Add(TelemetryErrorKind::kMissingFile, 0,
                   "cannot tail " + path);
    }
    long shift = std::min(st.misses - 1, kMaxBackoffShift);
    st.next_attempt =
        st.attempts + std::min(1L << shift, kMaxBackoffPolls);
    p.missing = true;
    return p;
  }
  st.misses = 0;
  st.next_attempt = 0;

  f.seekg(static_cast<std::streamoff>(st.offset));
  BlockLineReader lines(f, block_, lim.input.max_line_bytes);
  std::string line;
  std::vector<std::string_view> cells;
  WithStream(id, ds, [&](auto& out, auto time_of) {
    RecordOf<decltype(out)> rec;
    for (;;) {
      if (st.offset == static_cast<std::size_t>(size)) {
        p.eof = true;
        return;
      }
      const LineRead lr = lines.Next(line);
      if (!lr.got) {
        p.eof = true;
        return;
      }
      if (lr.hit_eof) {  // No trailing newline: writer is mid-line.
        p.partial_tail = true;  // Re-read once completed, next poll.
        return;
      }
      // raw_len counts every byte of the line even past the buffering cap,
      // so offsets stay byte-exact for over-long (dropped) lines too.
      const std::size_t consumed = lr.raw_len + 1;
      if (!st.header_seen) {
        st.header_seen = true;
        st.abs_row = 1;
        st.offset += consumed;
        p.progressed = true;
        continue;
      }
      const std::size_t this_row = st.abs_row + 1;
      if (!ParseDataLine(line, lr.truncated, this_row, lim.input, cells,
                         st.stats, rec)) {
        // Blank, or malformed and already counted with its absolute row
        // number: consume it.
        st.offset += consumed;
        st.abs_row = this_row;
        p.progressed = true;
        continue;
      }
      const Time t = time_of(rec);
      if (t >= lim.limit + lim.reorder_guard &&
          t <= lim.limit + lim.max_jump) {
        // Stop rule: this row belongs to a future poll window. Hold it
        // back (offset untouched) so a re-scan with the same limit ingests
        // the identical prefix.
        return;
      }
      st.offset += consumed;
      st.abs_row = this_row;
      p.progressed = true;
      ++st.stats.rows_total;
      ++st.stats.rows_kept;
      // Behind the retention horizon (only possible on a resume re-scan):
      // already analysed, drop silently but keep counts exact.
      if (t < lim.cut) continue;
      ++p.rows_ingested;
      if (t <= lim.limit + lim.max_jump) {
        st.watermark = std::max(st.watermark, t);
      }
      out.push_back(rec);
    }
  });
  return p;
}

TailCursor TailingDatasetReader::cursor(StreamId id) const {
  const StreamState& st = state_[static_cast<std::size_t>(id)];
  TailCursor c;
  c.offset = st.offset;
  c.abs_row = st.abs_row;
  c.header_seen = st.header_seen;
  c.watermark = st.watermark;
  c.rows_total = st.stats.rows_total;
  c.rows_kept = st.stats.rows_kept;
  c.rows_dropped = st.stats.rows_dropped;
  return c;
}

void TailingDatasetReader::ReplayTo(StreamId id, SessionDataset& ds,
                                    const TailCursor& cur, Time cut,
                                    const InputLimits& limits) {
  StreamState& st = state(id);
  if (cur.offset > 0) {
    const std::string path = dir_ + "/" + StreamFileName(id);
    std::ifstream f(path, std::ios::binary);
    std::streamoff size = -1;
    if (f) {
      f.seekg(0, std::ios::end);
      size = f.tellg();
    }
    if (!f || size < 0 || static_cast<std::size_t>(size) < cur.offset) {
      throw std::runtime_error(
          "tail: cannot replay " + path +
          " — file is shorter than its checkpointed cursor");
    }
    f.seekg(0);
    BlockLineReader lines(f, block_, limits.max_line_bytes);
    std::string line;
    std::vector<std::string_view> cells;
    ReadStats counted;  // The killed process already counted these rows.
    WithStream(id, ds, [&](auto& out, auto time_of) {
      RecordOf<decltype(out)> rec;
      std::size_t pos = 0;
      bool header = false;
      while (pos < cur.offset) {
        const LineRead lr = lines.Next(line);
        if (!lr.got) break;
        // A final line with no newline contributes raw_len bytes only; the
        // checkpointed cursor never points past a newline-terminated row,
        // so this keeps pos byte-exact in both cases.
        pos += lr.raw_len + (lr.hit_eof ? 0 : 1);
        if (!header) {
          header = true;
          continue;
        }
        // Blank, over-long and malformed lines left no record in the
        // killed process either.
        if (!ParseDataLine(line, lr.truncated, 0, limits, cells, counted,
                           rec)) {
          continue;
        }
        if (time_of(rec) < cut) continue;  // Evicted before the crash.
        out.push_back(rec);
      }
    });
  }
  st.offset = cur.offset;
  st.abs_row = cur.abs_row;
  st.header_seen = cur.header_seen;
  st.watermark = cur.watermark;
  st.stats.rows_total = cur.rows_total;
  st.stats.rows_kept = cur.rows_kept;
  st.stats.rows_dropped = cur.rows_dropped;
}

}  // namespace domino::telemetry
