// Malformed-input regression suite: every untrusted surface fed the exact
// inputs that used to (or plausibly could) crash, hang, or OOM the tools —
// strict number parsing, bounded line reading, CSV budgets, DSL limit
// diagnostics (DL005/DL006/DL213), checkpoint corruption, and the CLI's
// argv front-end. Runs in every build; the fuzz/ harnesses are the
// exploration side of the same contract (see DESIGN.md §10).
#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/parse.h"
#include "domino/config_parser.h"
#include "domino/expr.h"
#include "domino/runtime/checkpoint.h"
#include "domino/runtime/fleet.h"
#include "domino_main.h"
#include "scratch_dir.h"
#include "sim/call_session.h"
#include "sim/cell_config.h"
#include "telemetry/io.h"

namespace domino {
namespace {

using analysis::lint::DiagnosticSink;

bool HasCode(const DiagnosticSink& sink, const std::string& code) {
  for (const auto& d : sink.diagnostics()) {
    if (d.code == code) return true;
  }
  return false;
}

// --- strict number parsing -------------------------------------------------------

TEST(StrictParseTest, Int64RejectsGarbageOverflowAndPartialInput) {
  std::int64_t v = 0;
  EXPECT_TRUE(ParseInt64("-42", v));
  EXPECT_EQ(v, -42);
  EXPECT_TRUE(ParseInt64("9223372036854775807", v));
  EXPECT_EQ(v, std::numeric_limits<std::int64_t>::max());
  for (const char* bad :
       {"", " 1", "1 ", "1x", "x1", "1.5", "0x10", "9223372036854775808",
        "-9223372036854775809", "١٢٣", "+", "-", "--1"}) {
    EXPECT_FALSE(ParseInt64(bad, v)) << "'" << bad << "'";
  }
}

TEST(StrictParseTest, Uint64RejectsSignsAndOverflow) {
  std::uint64_t v = 0;
  EXPECT_TRUE(ParseUint64("18446744073709551615", v));
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());
  for (const char* bad :
       {"", "-1", "+1", "18446744073709551616", "1e3", "0.0"}) {
    EXPECT_FALSE(ParseUint64(bad, v)) << "'" << bad << "'";
  }
}

TEST(StrictParseTest, FiniteRejectsInfNanOverflowAndGarbage) {
  double v = 0;
  EXPECT_TRUE(ParseFinite("-2.5e3", v));
  EXPECT_EQ(v, -2500.0);
  for (const char* bad : {"", "inf", "-inf", "nan", "NAN(ind)", "1e999",
                          "-1e999", "1.0.0", "1,5", "0x1p4 junk", "1d"}) {
    EXPECT_FALSE(ParseFinite(bad, v)) << "'" << bad << "'";
  }
}

TEST(StrictParseTest, RangeCheckedVariantsEnforceBounds) {
  std::int64_t i = 0;
  EXPECT_TRUE(ParseInt64In("5", 0, 10, i));
  EXPECT_FALSE(ParseInt64In("11", 0, 10, i));
  EXPECT_FALSE(ParseInt64In("-1", 0, 10, i));
  double d = 0;
  EXPECT_TRUE(ParseFiniteIn("0.5", 0.0, 1.0, d));
  EXPECT_FALSE(ParseFiniteIn("1.5", 0.0, 1.0, d));
}

/// The strict parsers' contract written out longhand over strtoll/strtod:
/// the reference every faster parse path must reproduce bit for bit.
bool RefInt64(std::string_view s, std::int64_t& out) {
  if (s.empty() || s.size() > 64) return false;
  const std::string buf(s);
  if (buf[0] == ' ' || buf[0] == '\t') return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  out = v;
  return true;
}

bool RefFinite(std::string_view s, double& out) {
  if (s.empty() || s.size() > 64) return false;
  const std::string buf(s);
  if (buf[0] == ' ' || buf[0] == '\t') return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size() || !std::isfinite(v)) {
    return false;
  }
  out = v;
  return true;
}

std::uint64_t Bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

/// ParseInt64 and ParseFinite agree with the reference on `s`: same
/// verdict, same value (doubles compared by bit pattern, so -0.0 != 0.0).
void ExpectMatchesReference(std::string_view s) {
  std::int64_t got_i = 7, want_i = 7;
  const bool ok_i = ParseInt64(s, got_i);
  ASSERT_EQ(ok_i, RefInt64(s, want_i)) << "int '" << s << "'";
  if (ok_i) {
    ASSERT_EQ(got_i, want_i) << "int '" << s << "'";
  }
  double got_d = 7, want_d = 7;
  const bool ok_d = ParseFinite(s, got_d);
  ASSERT_EQ(ok_d, RefFinite(s, want_d)) << "double '" << s << "'";
  if (ok_d) {
    ASSERT_EQ(Bits(got_d), Bits(want_d)) << "double '" << s << "'";
  }
}

TEST(StrictParseTest, DigitFastPathMatchesStrtollAndStrtodBitForBit) {
  for (const char* s :
       {"0", "-0", "+0", "+5", "-5", "007", "-007", "-0000", "1", "-",
        "+", "", "--1", "-+1", "\v1", "\n1", "\f1", "\r1", " 1", "\t1",
        "1 ", "1\v", "1e3", "1E3", "-1e3", ".5", "5.", "1.", "-.5", "0x10",
        "1e", "12x", "x12", "1,5", "\xd9\xa3",
        // 15 and 16 digits: the double fast path's bound (2^53 > 10^15).
        "123456789012345", "-123456789012345", "999999999999999",
        "1234567890123456", "-9007199254740993", "9007199254740993",
        // 18 and 19 digits: the integer fast path's bound.
        "123456789012345678", "-999999999999999999", "999999999999999999",
        "1234567890123456789", "9223372036854775807", "-9223372036854775808",
        "9223372036854775808", "-9223372036854775809", "9999999999999999999",
        "00000000000000000001", "-0000000000000000000",
        "1111111111111111111111111111111111111111111111111111111111111111",
        "11111111111111111111111111111111111111111111111111111111111111111"}) {
    ExpectMatchesReference(s);
  }
  // Embedded NULs are never part of a number.
  ExpectMatchesReference(std::string_view("12\0" "3", 4));

  // Seeded sweep: digit runs of every length around both bounds with
  // optional signs, then short tokens over the full numeric alphabet.
  std::uint64_t state = 20261017;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int i = 0; i < 200'000; ++i) {
    std::string s;
    const auto sign = next() % 4;
    if (sign == 1) s += '-';
    if (sign == 2) s += '+';
    const std::size_t len = 1 + next() % 22;
    for (std::size_t k = 0; k < len; ++k) {
      s += static_cast<char>('0' + next() % 10);
    }
    ExpectMatchesReference(s);
  }
  static constexpr char kAlphabet[] = "0123456789-+.eE \v\t\nx";
  for (int i = 0; i < 200'000; ++i) {
    std::string s;
    const std::size_t len = next() % 8;
    for (std::size_t k = 0; k < len; ++k) {
      s += kAlphabet[next() % (sizeof kAlphabet - 1)];
    }
    ExpectMatchesReference(s);
  }
}

// --- bounded line reading --------------------------------------------------------

TEST(BoundedGetlineTest, TruncatesButAccountsForEveryByte) {
  std::istringstream is("short\n" + std::string(100, 'x') + "\ntail");
  std::string line;
  LineRead lr = BoundedGetline(is, line, 8);
  EXPECT_TRUE(lr.got);
  EXPECT_FALSE(lr.truncated);
  EXPECT_EQ(line, "short");
  EXPECT_EQ(lr.raw_len, 5u);

  lr = BoundedGetline(is, line, 8);
  EXPECT_TRUE(lr.got);
  EXPECT_TRUE(lr.truncated);
  EXPECT_EQ(line.size(), 8u);       // buffered only the cap...
  EXPECT_EQ(lr.raw_len, 100u);      // ...but consumed and counted all 100

  lr = BoundedGetline(is, line, 8);
  EXPECT_TRUE(lr.got);
  EXPECT_TRUE(lr.hit_eof);          // no trailing newline
  EXPECT_EQ(line, "tail");

  lr = BoundedGetline(is, line, 8);
  EXPECT_FALSE(lr.got);
}

// --- CSV budgets -----------------------------------------------------------------

TEST(CsvLimitsTest, OverlongLineIsDroppedAsLimitExceeded) {
  InputLimits lim;
  lim.max_line_bytes = 32;
  std::istringstream is("time_us,rnti,dir,prbs,mcs,tbs_bytes,is_retx,h,a\n" +
                        std::string(1000, '9') + "\n");
  telemetry::ReadStats stats;
  auto rows = telemetry::ReadDciCsv(is, &stats, lim);
  EXPECT_TRUE(rows.empty());
  ASSERT_FALSE(stats.errors.empty());
  EXPECT_EQ(stats.errors[0].kind, telemetry::TelemetryErrorKind::kLimitExceeded);
}

TEST(CsvLimitsTest, RecordBudgetStopsIngestionWithOneDiagnostic) {
  InputLimits lim;
  lim.max_records = 3;
  std::ostringstream data;
  data << "time_us,rnti,dir,prbs,mcs,tbs_bytes,is_retx,h,a\n";
  for (int i = 0; i < 10; ++i) {
    data << i * 1000 << ",17,UL,50,20,1500,0,1,1\n";
  }
  std::istringstream is(data.str());
  telemetry::ReadStats stats;
  auto rows = telemetry::ReadDciCsv(is, &stats, lim);
  EXPECT_EQ(rows.size(), 3u);
  ASSERT_FALSE(stats.errors.empty());
  EXPECT_EQ(stats.errors.back().kind,
            telemetry::TelemetryErrorKind::kLimitExceeded);
}

TEST(CsvLimitsTest, UnterminatedQuoteAndFieldOverflowAreBadRowsNotFatal) {
  InputLimits lim;
  lim.max_fields = 16;
  std::string wide = "1000";
  for (int i = 0; i < 32; ++i) wide += ",1";
  std::istringstream is(
      "time_us,rnti,dir,prbs,mcs,tbs_bytes,is_retx,h,a\n"
      "\"unterminated,17,UL,50,20,1500,0,1,1\n" +
      wide + "\n" +
      "2000,17,UL,50,20,1500,0,1,1\n");
  telemetry::ReadStats stats;
  auto rows = telemetry::ReadDciCsv(is, &stats, lim);
  EXPECT_EQ(rows.size(), 1u);  // only the final well-formed row
  EXPECT_EQ(stats.rows_dropped, 2u);
}

// --- DSL limit diagnostics -------------------------------------------------------

TEST(DslLimitsTest, OutOfRangeNumberLiteralIsDL005) {
  DiagnosticSink sink;
  analysis::ParseExpressionChecked("max(fwd.owd_ms) > 1e99999", sink);
  EXPECT_TRUE(HasCode(sink, "DL005"));
  EXPECT_FALSE(HasCode(sink, "DL002"));  // distinct from malformed literals
}

TEST(DslLimitsTest, DeepNestingIsDL006NotStackOverflow) {
  InputLimits lim;
  lim.max_expr_depth = 16;
  const std::string deep =
      std::string(200, '(') + "1" + std::string(200, ')') + " > 0";
  DiagnosticSink sink;
  auto ce = analysis::ParseExpressionChecked(deep, sink, lim);
  EXPECT_EQ(ce.expr, nullptr);
  EXPECT_TRUE(HasCode(sink, "DL006"));
}

TEST(DslLimitsTest, NodeBudgetIsDL006) {
  InputLimits lim;
  lim.max_expr_nodes = 8;
  std::string wide = "min(fwd.owd_ms)";
  for (int i = 0; i < 32; ++i) wide += " + min(fwd.owd_ms)";
  DiagnosticSink sink;
  auto ce = analysis::ParseExpressionChecked(wide + " > 0", sink, lim);
  EXPECT_EQ(ce.expr, nullptr);
  EXPECT_TRUE(HasCode(sink, "DL006"));
}

TEST(DslLimitsTest, ConfigByteAndDefBudgetsAreDL213) {
  InputLimits lim;
  lim.max_config_bytes = 64;
  DiagnosticSink sink;
  analysis::ParseConfigChecked(std::string(1000, '#'), sink, lim);
  EXPECT_TRUE(HasCode(sink, "DL213"));

  InputLimits defs_lim;
  defs_lim.max_config_defs = 2;
  std::string cfg;
  for (int i = 0; i < 6; ++i) {
    cfg += "event e" + std::to_string(i) + ": max(fwd.owd_ms) > 1\n";
  }
  DiagnosticSink defs_sink;
  auto parsed = analysis::ParseConfigChecked(cfg, defs_sink, defs_lim);
  EXPECT_TRUE(HasCode(defs_sink, "DL213"));
  EXPECT_EQ(parsed.events.size(), 2u);  // remaining lines ignored, not read
}

// --- checkpoint hardening --------------------------------------------------------

TEST(CheckpointLimitsTest, SizeAndEntryBudgetsFailClosed) {
  runtime::LiveCheckpoint cp;
  std::string error;
  runtime::CheckpointFailure failure = runtime::CheckpointFailure::kNone;

  InputLimits lim;
  lim.max_checkpoint_bytes = 16;
  EXPECT_FALSE(runtime::ParseCheckpoint(std::string(100, 'a'), "", &cp,
                                        &error, &failure, lim));
  EXPECT_EQ(failure, runtime::CheckpointFailure::kCorrupt);
  EXPECT_NE(error.find("budget"), std::string::npos) << error;
}

TEST(CheckpointLimitsTest, ZeroByteAndGarbageAreCorruptNotExceptions) {
  runtime::LiveCheckpoint cp;
  std::string error;
  runtime::CheckpointFailure failure = runtime::CheckpointFailure::kNone;
  const std::string cases[] = {std::string(),
                               std::string("\x00\xff\x7f" "ELF", 6),
                               std::string("domino-live-checkpoint v1\n")};
  for (const std::string& bad : cases) {
    EXPECT_FALSE(
        runtime::ParseCheckpoint(bad, "", &cp, &error, &failure));
    EXPECT_EQ(failure, runtime::CheckpointFailure::kCorrupt);
  }
}

// --- CLI argv front-end ----------------------------------------------------------

int DryRun(std::vector<std::string> args) {
  cli::MainOptions mo;
  mo.dry_run = true;
  return cli::DominoMain(std::move(args), mo);
}

TEST(CliStrictFlagsTest, MalformedNumericFlagValuesExitTwo) {
  // Each of these used to escape as std::invalid_argument/out_of_range
  // from std::stod/stoi/stoll/stoull.
  EXPECT_EQ(DryRun({"simulate", "wired", "abc", "/tmp/out"}), 2);
  EXPECT_EQ(DryRun({"simulate", "wired", "1e999", "/tmp/out"}), 2);
  EXPECT_EQ(DryRun({"simulate", "wired", "5", "/tmp/out", "--seed", "-1"}),
            2);
  EXPECT_EQ(DryRun({"live", "/tmp/ds", "--threads=abc"}), 2);
  EXPECT_EQ(DryRun({"live", "/tmp/ds", "--threads", "999999999999999"}), 2);
  EXPECT_EQ(DryRun({"live", "/tmp/ds", "--chunk-s", "nan"}), 2);
  EXPECT_EQ(DryRun({"analyze", "/tmp/ds", "--window", "1e999"}), 2);
  EXPECT_EQ(DryRun({"analyze", "/tmp/ds", "--min-coverage", "0.5x"}), 2);
  EXPECT_EQ(DryRun({"replay", "/tmp/ds", "/tmp/out", "--interval-ms",
                    "-5"}),
            2);
  EXPECT_EQ(DryRun({"replay", "/tmp/ds", "/tmp/out", "--chunk-ms", "abc"}),
            2);
  EXPECT_EQ(DryRun({"ingest", "/tmp/ds", "--inject", "drop=oops"}), 2);
  EXPECT_EQ(DryRun({"ingest", "/tmp/ds", "--inject", "drop=nan"}), 2);
  EXPECT_EQ(DryRun({"replay", "/tmp/ds", "/tmp/out", "--stall",
                    "dci=later"}),
            2);
}

TEST(CliStrictFlagsTest, ValidCommandLinesDryRunClean) {
  EXPECT_EQ(DryRun({"simulate", "wired", "5", "/tmp/out", "--seed", "7"}),
            0);
  EXPECT_EQ(DryRun({"live", "/tmp/ds", "--threads=4", "--chunk-s=2.5",
                    "--follow", "--quiet"}),
            0);
  EXPECT_EQ(DryRun({"analyze", "/tmp/ds", "--window", "10",
                    "--min-coverage=0.8"}),
            0);
  EXPECT_EQ(DryRun({"replay", "/tmp/ds", "/tmp/out", "--chunk-ms", "500",
                    "--stall", "dci=3.5"}),
            0);
  EXPECT_EQ(DryRun({"ingest", "/tmp/ds", "--inject", "drop=0.1,dup=0.05",
                    "--seed", "9"}),
            0);
  EXPECT_EQ(DryRun({"lint", "whatever.domino", "--strict"}), 0);
  EXPECT_EQ(DryRun({"codegen", "whatever.domino"}), 0);
}

TEST(CliStrictFlagsTest, UsageErrorsStayUsageErrors) {
  EXPECT_EQ(DryRun({}), 2);
  EXPECT_EQ(DryRun({"frobnicate"}), 2);
  EXPECT_EQ(DryRun({"simulate", "wired"}), 2);
  EXPECT_EQ(DryRun({"live"}), 2);
  // Trailing flag with no value is not silently swallowed.
  EXPECT_EQ(DryRun({"analyze", "/tmp/ds", "--window"}), 2);
}

TEST(CliStrictFlagsTest, UnknownMissingAndRepeatedFlagsAreNeverOperands) {
  // A mistyped flag must never become an operand (a second live session
  // over ./--folow, a serve session named --bogus, a watch root named
  // after the misspelled --tunables).
  EXPECT_EQ(DryRun({"live", "/tmp/ds", "--folow"}), 2);
  EXPECT_EQ(DryRun({"serve", "/tmp/ds", "--bogus"}), 2);
  EXPECT_EQ(DryRun({"serve", "--watch", "/tmp/root", "--tunables-file",
                    "/etc/t.conf"}),
            2);
  EXPECT_EQ(DryRun({"live", "/tmp/ds", "--state"}), 2);
  EXPECT_EQ(DryRun({"live", "/tmp/ds", "--state", "--follow"}), 2);
  EXPECT_EQ(DryRun({"live", "/tmp/ds", "--quiet", "--quiet"}), 2);
  EXPECT_EQ(DryRun({"analyze", "/tmp/ds", "--window", "5", "--window=6"}),
            2);
  EXPECT_EQ(DryRun({"live", "/tmp/ds", "--follow=yes"}), 2);
  // `live` is one session; several run under `serve --max-attempts 1`.
  EXPECT_EQ(DryRun({"live", "/tmp/a", "/tmp/b"}), 2);
  EXPECT_EQ(DryRun({"serve", "/tmp/a", "/tmp/b", "--max-attempts", "1"}), 0);
  // Retired flags.
  EXPECT_EQ(DryRun({"analyze", "/tmp/ds", "--no-lint"}), 2);
  EXPECT_EQ(DryRun({"live", "/tmp/ds", "--sequential"}), 2);
}

TEST(CliStrictFlagsTest, LintWindowAndFormatGoThroughTheStrictLayer) {
  for (const char* bad : {"nan", "inf", "1e999", "0", "-1", "2s"}) {
    EXPECT_EQ(DryRun({"lint", "c.domino", "--window", bad}), 2) << bad;
  }
  EXPECT_EQ(DryRun({"lint", "c.domino", "--format", "xml"}), 2);
  EXPECT_EQ(DryRun({"lint", "c.domino", "--window", "2.5", "--format=json"}),
            0);
  EXPECT_EQ(DryRun({"lint", "c.domino", "--format", "text"}), 0);
}

TEST(CliStrictFlagsTest, EveryCommandPrintsHelpToStdout) {
  const char* const commands[] = {
      "simulate", "ingest", "analyze",  "live",    "serve",
      "fleet-status", "replay", "convert", "codegen", "lint"};
  testing::internal::CaptureStdout();
  EXPECT_EQ(DryRun({"--help"}), 0);
  const std::string all = testing::internal::GetCapturedStdout();
  for (const char* cmd : commands) {
    EXPECT_NE(all.find(std::string("  domino ") + cmd + " "),
              std::string::npos)
        << cmd;
    testing::internal::CaptureStdout();
    EXPECT_EQ(DryRun({cmd, "--help"}), 0) << cmd;
    const std::string help = testing::internal::GetCapturedStdout();
    EXPECT_EQ(help.rfind("usage:\n  domino " + std::string(cmd), 0), 0u)
        << help;
  }
  // The help lists what the parser accepts: the serve session flags are
  // declared once, for live and serve alike.
  for (const char* flag : {"--chunk-s", "--naive", "--max-backlog",
                           "--tunables", "--owner", "--no-sanitize"}) {
    EXPECT_NE(all.find(flag), std::string::npos) << flag;
  }
  EXPECT_EQ(all.find("--no-lint"), std::string::npos);
  EXPECT_EQ(all.find("--sequential"), std::string::npos);
}

// --- CLI output files --------------------------------------------------------------

TEST(CliOutputFilesTest, UnwritableOutputPathExitsTwo) {
  sim::SessionConfig cfg;
  cfg.profile = sim::WiredBaseline();
  cfg.duration = Seconds(6);
  const std::string ds = testing_util::FreshScratchDir("cli_outputs_ds");
  telemetry::SaveDataset(sim::CallSession(cfg).Run(), ds);
  const std::string scratch = testing_util::FreshScratchDir("cli_outputs");
  const std::string nowhere = scratch + "/missing/dir/out";
  const std::string config = scratch + "/c.domino";
  std::ofstream(config) << "event big_owd: max(fwd.owd_ms) > 100\n";

  const std::vector<std::vector<std::string>> cases = {
      {"analyze", ds, "--json-report", nowhere},
      {"analyze", ds, "--chains-csv", nowhere},
      {"analyze", ds, "--features-csv", nowhere},
      {"codegen", config, "-o", nowhere},
      {"fleet-status", scratch, "--out", nowhere},
      {"serve", ds, "--state-root", scratch + "/fleet", "--quiet",
       "--report", nowhere},
  };
  for (const auto& argv : cases) {
    testing::internal::CaptureStdout();
    EXPECT_EQ(cli::DominoMain(argv), 2) << argv[0] << " " << argv[2];
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(out.find("written"), std::string::npos) << out;
    EXPECT_EQ(out.find("wrote"), std::string::npos) << out;
  }
  // The same sinks at a writable path still succeed.
  testing::internal::CaptureStdout();
  EXPECT_EQ(cli::DominoMain({"analyze", ds, "--json-report",
                             scratch + "/r.json", "--chains-csv",
                             scratch + "/c.csv"}),
            0);
  testing::internal::GetCapturedStdout();
  EXPECT_TRUE(std::ifstream(scratch + "/r.json").good());
  EXPECT_TRUE(std::ifstream(scratch + "/c.csv").good());
}

// --- the process-isolation child argv contract ---------------------------------

/// Every argv runtime::ChildArgv can hand a process-isolation child must
/// parse as a `domino live` command line, with no flag given twice.
void ExpectChildArgvParses(const runtime::FleetOptions& fleet,
                           const runtime::LiveOptions& o,
                           const std::string& fence_lease,
                           std::uint64_t token) {
  runtime::SessionSpec spec;
  spec.dataset_dir = "/data/cell0";
  spec.state_dir = "/state/s0";
  const std::vector<std::string> argv =
      runtime::ChildArgv(fleet, spec, o, fence_lease, token);
  ASSERT_GE(argv.size(), 3u);
  EXPECT_EQ(argv[0], fleet.exec_path);
  EXPECT_EQ(argv[1], "live");
  std::string joined;
  std::map<std::string, int> seen;
  for (const std::string& a : argv) {
    joined += " " + a;
    if (a.rfind("--", 0) == 0) ++seen[a.substr(0, a.find('='))];
  }
  for (const auto& [flag, n] : seen) EXPECT_EQ(n, 1) << flag << ":" << joined;
  EXPECT_EQ(DryRun(std::vector<std::string>(argv.begin() + 1, argv.end())), 0)
      << joined;
}

TEST(ChildArgvContractTest, EveryChildArgvDryRunsCleanAsLive) {
  runtime::FleetOptions fleet;
  fleet.exec_path = "/usr/bin/domino";
  // What `serve --isolate process` forwards: the user's session-flag
  // tokens, verbatim (both spellings).
  const std::vector<std::string> forwarded = {
      "--window", "4", "--step=0.25", "--min-coverage", "0.6",
      "--chunk-s", "1.5", "--horizon-s=20", "--stall-deadline-s", "3",
      "--checkpoint-every", "2", "--max-idle", "5", "--naive"};

  std::vector<runtime::LiveOptions> variants;
  variants.emplace_back();  // no chaos, default budgets
  runtime::LiveOptions o;
  o.chaos_crash_after = 1;
  variants.push_back(o);
  o = {};
  o.chaos_fail_after = 2;
  variants.push_back(o);
  o = {};
  o.chaos_wedge_after = 3;
  variants.push_back(o);
  using Kind = DiskFaultSpec::Kind;
  for (Kind k : {Kind::kEnospc, Kind::kEio, Kind::kShortWrite, Kind::kRename,
                 Kind::kFsync}) {
    o = {};
    o.disk_fault = {k, 2};
    variants.push_back(o);
  }
  o = {};
  o.max_backlog_windows = 7;
  o.input.max_records = 5000;  // a tenant --tenant-max-records budget
  variants.push_back(o);
  o = {};  // everything at once
  o.chaos_crash_after = 1;
  o.chaos_fail_after = 1;
  o.chaos_wedge_after = 1;
  o.disk_fault = {Kind::kEio, 1};
  o.max_backlog_windows = 3;
  o.input.max_records = 1;
  variants.push_back(o);

  for (const auto& args : {std::vector<std::string>{}, forwarded}) {
    fleet.child_args = args;
    for (const runtime::LiveOptions& v : variants) {
      ExpectChildArgvParses(fleet, v, "", 0);
      ExpectChildArgvParses(fleet, v, "/state/shard/k0", 42);
    }
  }
}

// --- the README stays runnable -----------------------------------------------------

/// The argv (program name dropped) of every `domino <cmd> ...` command line
/// in a fenced block of the markdown file at `path`: `\` continuations
/// joined; a systemd `ExecStart=` prefix, a trailing `&` and `# comments`
/// stripped; the systemd specifier %H expanded as systemd would.
std::vector<std::vector<std::string>> FencedDominoCommands(
    const std::string& path) {
  std::ifstream f(path);
  std::vector<std::vector<std::string>> out;
  bool fenced = false;
  std::string text;
  for (std::string line; std::getline(f, line);) {
    if (line.rfind("```", 0) == 0) {
      fenced = !fenced;
      text.clear();
      continue;
    }
    if (!fenced) continue;
    text += line;
    if (!text.empty() && text.back() == '\\') {
      text.pop_back();
      continue;
    }
    if (text.rfind("ExecStart=", 0) == 0) text.erase(0, 10);
    if (const auto hash = text.find(" #"); hash != std::string::npos) {
      text.erase(hash);
    }
    std::istringstream words(text);
    text.clear();
    std::vector<std::string> argv;
    for (std::string w; words >> w;) argv.push_back(w == "%H" ? "box1" : w);
    if (!argv.empty() && argv.back() == "&") argv.pop_back();
    if (argv.size() < 2) continue;
    const std::string& prog = argv[0];
    if (prog == "domino" ||
        ((prog[0] == '.' || prog[0] == '/') && prog.size() > 7 &&
         prog.compare(prog.size() - 7, 7, "/domino") == 0)) {
      out.emplace_back(argv.begin() + 1, argv.end());
    }
  }
  return out;
}

TEST(CliDocsTest, ReadmeCommandLinesDryRunClean) {
  const auto commands = FencedDominoCommands(DOMINO_README);
  EXPECT_GE(commands.size(), 15u);  // the scan itself must not go blind
  for (const auto& argv : commands) {
    std::string joined;
    for (const std::string& a : argv) joined += " " + a;
    EXPECT_EQ(DryRun(argv), 0) << "domino" << joined;
  }
}

}  // namespace
}  // namespace domino
