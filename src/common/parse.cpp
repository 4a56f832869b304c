#include "common/parse.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <istream>

namespace domino {

namespace {

/// The strto* family needs a NUL-terminated buffer; views into larger
/// buffers are copied at most once, and numeric tokens are short anyway.
/// Over-long tokens cannot be numbers we accept — reject before copying.
constexpr std::size_t kMaxNumberChars = 64;

bool TooLong(std::string_view s) {
  return s.empty() || s.size() > kMaxNumberChars;
}

/// Exact fast path for the spelling machine-written telemetry uses for
/// integers, `-?[0-9]{1,max_digits}`: with max_digits <= 19 the magnitude
/// cannot overflow. Returns false, touching nothing, for any other token,
/// which the caller hands to strtoll/strtod unchanged.
bool ParseShortDigits(std::string_view s, std::size_t max_digits,
                      bool& negative, std::uint64_t& magnitude) {
  const bool neg = !s.empty() && s[0] == '-';
  const std::string_view digits = s.substr(neg ? 1 : 0);
  if (digits.empty() || digits.size() > max_digits) return false;
  std::uint64_t v = 0;
  for (const char c : digits) {
    const auto d = static_cast<unsigned>(static_cast<unsigned char>(c) - '0');
    if (d > 9) return false;
    v = v * 10 + d;
  }
  negative = neg;
  magnitude = v;
  return true;
}

}  // namespace

bool ParseInt64(std::string_view s, std::int64_t& out) {
  bool neg = false;
  std::uint64_t mag = 0;
  // 18 digits stay below 10^18 < 2^63, so the negation cannot overflow.
  if (ParseShortDigits(s, 18, neg, mag)) {
    const auto v = static_cast<std::int64_t>(mag);
    out = neg ? -v : v;
    return true;
  }
  if (TooLong(s)) return false;
  char buf[kMaxNumberChars + 1];
  s.copy(buf, s.size());
  buf[s.size()] = '\0';
  // strtoll skips leading whitespace; strict parsing must not.
  if (buf[0] == ' ' || buf[0] == '\t') return false;
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(buf, &end, 10);
  if (errno != 0 || end != buf + s.size()) return false;
  out = v;
  return true;
}

bool ParseUint64(std::string_view s, std::uint64_t& out) {
  if (TooLong(s)) return false;
  // strtoull accepts a leading '-' (wrapping modularly); forbid any sign.
  if (s[0] == '-' || s[0] == '+' || s[0] == ' ' || s[0] == '\t') {
    return false;
  }
  char buf[kMaxNumberChars + 1];
  s.copy(buf, s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(buf, &end, 10);
  if (errno != 0 || end != buf + s.size()) return false;
  out = v;
  return true;
}

bool ParseFinite(std::string_view s, double& out) {
  bool neg = false;
  std::uint64_t mag = 0;
  // 15 digits stay below 10^15 < 2^53: exactly representable, so the
  // conversion is the correctly rounded value strtod returns ("-0" is
  // -0.0 there too).
  if (ParseShortDigits(s, 15, neg, mag)) {
    const auto v = static_cast<double>(mag);
    out = neg ? -v : v;
    return true;
  }
  if (TooLong(s)) return false;
  char buf[kMaxNumberChars + 1];
  s.copy(buf, s.size());
  buf[s.size()] = '\0';
  if (buf[0] == ' ' || buf[0] == '\t') return false;
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(buf, &end);
  if (errno != 0 || end != buf + s.size()) return false;
  if (!std::isfinite(v)) return false;  // rejects "inf"/"nan" spellings too
  out = v;
  return true;
}

bool ParseInt64In(std::string_view s, std::int64_t lo, std::int64_t hi,
                  std::int64_t& out) {
  std::int64_t v = 0;
  if (!ParseInt64(s, v) || v < lo || v > hi) return false;
  out = v;
  return true;
}

bool ParseFiniteIn(std::string_view s, double lo, double hi, double& out) {
  double v = 0;
  if (!ParseFinite(s, v) || v < lo || v > hi) return false;
  out = v;
  return true;
}

LineRead BoundedGetline(std::istream& is, std::string& line,
                        std::size_t max) {
  line.clear();
  LineRead r;
  std::streambuf* sb = is.rdbuf();
  if (sb == nullptr) {
    is.setstate(std::ios::failbit);
    return r;
  }
  for (;;) {
    const int ch = sb->sbumpc();
    if (ch == std::char_traits<char>::eof()) {
      is.setstate(r.raw_len == 0 && !r.got ? (std::ios::eofbit |
                                              std::ios::failbit)
                                           : std::ios::eofbit);
      r.hit_eof = true;
      r.got = r.got || r.raw_len > 0;
      return r;
    }
    r.got = true;
    if (ch == '\n') return r;
    ++r.raw_len;
    if (line.size() < max) {
      line.push_back(static_cast<char>(ch));
    } else {
      r.truncated = true;  // keep consuming to '\n' without buffering
    }
  }
}

}  // namespace domino
