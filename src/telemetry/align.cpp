#include "telemetry/align.h"

#include <algorithm>
#include <cstdint>
#include <span>

namespace domino::telemetry {

double EstimateClockOffsetMs(const SessionDataset& ds,
                             double expected_floor_asymmetry_ms) {
  // A single corrupted timestamp (sniffer glitch, mid-capture clock jump)
  // would otherwise capture the per-direction minimum and silently
  // mis-align the whole trace, so implausible one-way delays — beyond what
  // any real skew-plus-path combination produces — are ignored. Records
  // need not be in send order; the estimator is order-free by design.
  constexpr double kMaxPlausibleOwdMs = 600e3;  // 10 minutes of skew.
  std::span<const std::uint8_t> dir = ds.packets.dir.span();
  std::span<const Time> sent = ds.packets.sent.span();
  std::span<const Time> received = ds.packets.received.span();
  const auto kUl = static_cast<std::uint8_t>(Direction::kUplink);
  double min_ul = 1e300, min_dl = 1e300;
  for (std::size_t i = 0; i < dir.size(); ++i) {
    if (received[i] == Time::max()) continue;  // Lost.
    double owd = (received[i] - sent[i]).millis();
    if (owd < -kMaxPlausibleOwdMs || owd > kMaxPlausibleOwdMs) continue;
    if (dir[i] == kUl) {
      min_ul = std::min(min_ul, owd);
    } else {
      min_dl = std::min(min_dl, owd);
    }
  }
  if (min_ul >= 1e300 || min_dl >= 1e300) return 0.0;
  // UL observed delays carry +offset (remote receive stamp), DL carry
  // -offset (remote send stamp): the half-difference cancels the common
  // floor, leaving offset + half the true floor asymmetry.
  return (min_ul - min_dl - expected_floor_asymmetry_ms) / 2.0;
}

void AlignClocks(SessionDataset& ds, double offset_ms) {
  Duration offset = Seconds(offset_ms / 1e3);
  // Operates directly on the packet columns: dir selects which remote
  // stamp (send for DL, receive for UL) shifts onto the local clock.
  std::span<const std::uint8_t> dir = ds.packets.dir.span();
  std::span<Time> sent = ds.packets.sent.mut();
  std::span<Time> received = ds.packets.received.mut();
  const auto kDl = static_cast<std::uint8_t>(Direction::kDownlink);
  for (std::size_t i = 0; i < dir.size(); ++i) {
    if (dir[i] == kDl) {
      sent[i] = sent[i] - offset;        // remote send stamp -> local clock
    } else if (received[i] != Time::max()) {
      received[i] = received[i] - offset;  // remote receive stamp
    }
  }
}

}  // namespace domino::telemetry
