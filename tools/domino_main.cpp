// domino — the command-line tool an operator or researcher runs.
//
// Every command declares its operands and flags once, as a table (Command
// below) whose entries point at the option fields they set. The one argv
// parser, the `--help` text and the session flags `serve --isolate process`
// hands to its children are all read from those tables, so they cannot
// drift apart. `domino --help` lists every command; `domino <cmd> --help`
// describes one.
//
// The parser is the CLI's trust boundary (DESIGN.md §10): flag values go
// through the strict layer in common/parse.h, and a malformed or
// out-of-range value (`--threads=abc`, `--seed 1e999`), an unknown flag, a
// flag without its value, a repeated flag or a surplus operand is a usage
// error (exit 2) with a one-line diagnostic naming the token — never an
// exception, never a silently misread operand.
#include "domino_main.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#if !defined(_WIN32)
#include <csignal>
#endif

#include "common/diskfault.h"
#include "common/parse.h"
#include "domino/codegen.h"
#include "domino/config_parser.h"
#include "domino/lint/lint.h"
#include "domino/report.h"
#include "domino/runtime/daemon.h"
#include "domino/runtime/fleet.h"
#include "domino/runtime/shard.h"
#include "sim/call_session.h"
#include "sim/cell_config.h"
#include "sim/live_feed.h"
#include "telemetry/align.h"
#include "telemetry/binfmt.h"
#include "telemetry/fault_inject.h"
#include "telemetry/io.h"
#include "telemetry/sanitize.h"

#ifndef DOMINO_VERSION
#define DOMINO_VERSION "unknown"
#endif

namespace domino::cli {
namespace {

using namespace domino;

// --- the flag table ----------------------------------------------------------

/// A flag value after the strict parse, in the field its kind uses.
struct Value {
  double real = 0;
  std::int64_t integer = 0;
  std::uint64_t u64 = 0;
  std::string text;
};

/// One flag: its name, value kind, help placeholder and the destination
/// its value is stored to (through `set`, which knows the field's type).
struct Flag {
  enum class Kind { kSwitch, kReal, kInt, kU64, kString };
  const char* name;
  const char* metavar;  ///< nullptr for a switch; a choice lists "a|b".
  Kind kind;
  void* dest;
  void (*set)(void* dest, const Value& v);
  std::int64_t lo = 0;  ///< kInt range, inclusive.
  std::int64_t hi = 0;
  bool choice = false;  ///< kString: the value must be one in `metavar`.
  /// A session flag `serve --isolate process` passes to every child as the
  /// user typed it, so the child's config fingerprint matches the parent's.
  bool forward = false;
};

using Kind = Flag::Kind;

Flag Switch(const char* name, bool* d) {
  return {name, nullptr, Kind::kSwitch, d,
          [](void* p, const Value&) { *static_cast<bool*>(p) = true; }};
}
template <class T>  // double or std::optional<double>
Flag Real(const char* name, const char* mv, T* d) {
  return {name, mv, Kind::kReal, d,
          [](void* p, const Value& v) { *static_cast<T*>(p) = v.real; }};
}
Flag Secs(const char* name, Duration* d) {
  return {name, "SEC", Kind::kReal, d, [](void* p, const Value& v) {
            *static_cast<Duration*>(p) = Seconds(v.real);
          }};
}
template <class T>  // any integer or std::optional<std::int64_t>
Flag Int(const char* name, const char* mv, std::int64_t lo, std::int64_t hi,
         T* d) {
  return {name, mv, Kind::kInt, d,
          [](void* p, const Value& v) {
            *static_cast<T*>(p) = static_cast<T>(v.integer);
          },
          lo, hi};
}
template <class T>  // std::uint64_t or its optional
Flag U64(const char* name, const char* mv, T* d) {
  return {name, mv, Kind::kU64, d,
          [](void* p, const Value& v) { *static_cast<T*>(p) = v.u64; }};
}
template <class T>  // std::string or std::optional<std::string>
Flag Str(const char* name, const char* mv, T* d) {
  return {name, mv, Kind::kString, d,
          [](void* p, const Value& v) { *static_cast<T*>(p) = v.text; }};
}
Flag Choice(const char* name, const char* values,
            std::optional<std::string>* d) {
  Flag f = Str(name, values, d);
  f.choice = true;
  return f;
}
Flag Forwarded(Flag f) {
  f.forward = true;
  return f;
}

/// Everything the parser and the help text know about one command.
struct Command {
  const char* operands;  ///< Synopsis of the operands.
  std::size_t min_operands;
  std::size_t max_operands;  ///< SIZE_MAX = any number.
  const char* about;         ///< Shown by `domino <cmd> --help`.
  std::vector<Flag> flags;
};

/// What a parse yields besides the flag destinations.
struct Parsed {
  std::vector<std::string> ops;
  /// The verbatim tokens of every Forwarded flag, in argv order.
  std::vector<std::string> forwarded;
};

/// The canonical strict-flag failure: one-line diagnostic, exit code 2.
int BadFlag(const char* flag, const std::string& value, const char* want) {
  std::fprintf(stderr, "domino: invalid value '%s' for %s (want %s)\n",
               value.c_str(), flag, want);
  return 2;
}

int UsageError(const char* cmd, const std::string& what) {
  std::fprintf(stderr, "domino %s: %s (see 'domino %s --help')\n", cmd,
               what.c_str(), cmd);
  return 2;
}

/// Parses `text` as the flag's kind (a switch takes none) and stores it; 0,
/// or 2 after BadFlag.
int Store(const Flag& f, const std::string& text) {
  Value v;
  if (f.kind == Kind::kReal && !ParseFinite(text, v.real)) {
    return BadFlag(f.name, text, "a finite number");
  }
  if (f.kind == Kind::kInt && !ParseInt64In(text, f.lo, f.hi, v.integer)) {
    const std::string want = "an integer in [" + std::to_string(f.lo) +
                             ", " + std::to_string(f.hi) + "]";
    return BadFlag(f.name, text, want.c_str());
  }
  if (f.kind == Kind::kU64 && !ParseUint64(text, v.u64)) {
    return BadFlag(f.name, text, "an unsigned integer");
  }
  if (f.choice && ("|" + std::string(f.metavar) + "|")
                          .find("|" + text + "|") == std::string::npos) {
    std::string want = "'" + std::string(f.metavar) + "'";
    want.replace(want.find('|'), 1, "' or '");
    return BadFlag(f.name, text, want.c_str());
  }
  v.text = text;
  f.set(f.dest, v);
  return 0;
}

/// `  domino <name> <operands> [--flag X] ...`, wrapped at 79 columns.
std::string Synopsis(const char* name, const Command& c) {
  const std::string head = std::string("  domino ") + name + " ";
  std::string out;
  std::string line = head + c.operands;
  for (const Flag& f : c.flags) {
    std::string item = std::string("[") + f.name;
    if (f.metavar != nullptr) item += std::string(" ") + f.metavar;
    item += "]";
    if (line.size() + 1 + item.size() > 79) {
      out += line + "\n";
      line = std::string(head.size(), ' ') + item;
    } else {
      line += " " + item;
    }
  }
  return out + line + "\n";
}

/// Reads `args` against `cmd`, storing every flag and filling `out`.
/// Returns -1 when the command should run; otherwise the exit code: 0
/// after `--help` (printed to stdout), 2 after a usage error.
int Parse(const char* name, const Command& cmd,
          const std::vector<std::string>& args, Parsed* out) {
  std::vector<char> seen(cmd.flags.size(), 0);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& tok = args[i];
    if (tok.empty() || tok[0] != '-') {
      out->ops.push_back(tok);
      continue;
    }
    if (tok == "--help") {
      std::printf("usage:\n%s\n%s\n", Synopsis(name, cmd).c_str(), cmd.about);
      return 0;
    }
    const std::size_t eq = tok.find('=');
    const std::string flag = tok.substr(0, eq);
    std::size_t k = 0;
    while (k < cmd.flags.size() && flag != cmd.flags[k].name) ++k;
    if (k == cmd.flags.size()) {
      return UsageError(name, "unknown flag '" + tok + "'");
    }
    const Flag& f = cmd.flags[k];
    if (seen[k] != 0) return UsageError(name, "flag '" + flag + "' repeated");
    seen[k] = 1;
    const std::size_t first = i;
    std::string value;
    if (eq != std::string::npos) {
      if (f.kind == Kind::kSwitch) {
        return UsageError(name, "flag '" + flag + "' takes no value");
      }
      value = tok.substr(eq + 1);
    } else if (f.kind != Kind::kSwitch) {
      if (i + 1 == args.size() || args[i + 1].rfind("--", 0) == 0) {
        return UsageError(name, "flag '" + flag + "' needs a value");
      }
      value = args[++i];
    }
    if (int rc = Store(f, value)) return rc;
    if (f.forward) {
      out->forwarded.insert(out->forwarded.end(),
                            args.begin() + static_cast<long>(first),
                            args.begin() + static_cast<long>(i) + 1);
    }
  }
  if (out->ops.size() < cmd.min_operands) {
    return UsageError(name, std::string("missing operand (want ") +
                                cmd.operands + ")");
  }
  if (out->ops.size() > cmd.max_operands) {
    return UsageError(name, "unexpected operand '" +
                                out->ops[cmd.max_operands] + "' (want " +
                                cmd.operands + ")");
  }
  return -1;
}

/// Writes one output file in full; false (after "domino <cmd>: cannot
/// write <path>" on stderr) when any part of it could not be written.
bool WriteOutput(const char* cmd, const std::string& path,
                 const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
  f.close();
  if (!f) {
    std::fprintf(stderr, "domino %s: cannot write %s\n", cmd, path.c_str());
  }
  return static_cast<bool>(f);
}

/// Reads a whole file; nullopt (with a message on stderr) when unreadable.
std::optional<std::string> ReadFileOrComplain(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot open config '%s'\n", path.c_str());
    return std::nullopt;
  }
  std::stringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

void PrintLoaded(const std::string& dir, const telemetry::SessionDataset& ds) {
  std::printf("loaded dataset '%s' (%s, %.0f s, %zu DCIs, %zu packets)\n",
              dir.c_str(), ds.cell_name.c_str(), ds.duration().seconds(),
              ds.dci.size(), ds.packets.size());
}

// --- the commands ------------------------------------------------------------

struct Cell {
  const char* name;
  sim::CellProfile (*profile)();
};
const Cell kCells[] = {{"tmobile-fdd15", sim::TMobileFdd15},
                       {"tmobile-tdd100", sim::TMobileTdd100},
                       {"amarisoft", sim::Amarisoft},
                       {"mosolabs", sim::Mosolabs},
                       {"wired", sim::WiredBaseline}};

struct Simulate : Parsed {
  std::uint64_t seed = 1;

  Command Spec() {
    return {"<cell> <seconds> <out_dir>", 3, 3,
            "Simulate a call over a modelled cell (see 'domino --help').",
            {U64("--seed", "N", &seed)}};
  }

  int Run(const MainOptions& mo) {
    const Cell* cell = std::find_if(std::begin(kCells), std::end(kCells),
                                    [&](const Cell& c) { return ops[0] == c.name; });
    if (cell == std::end(kCells)) {
      return BadFlag("<cell>", ops[0], "a cell listed by 'domino --help'");
    }
    double seconds = 0;
    if (!ParseFinite(ops[1], seconds) || seconds < 0) {
      return BadFlag("<seconds>", ops[1], "a non-negative finite number");
    }
    if (mo.dry_run) return 0;

    sim::SessionConfig cfg;
    cfg.profile = cell->profile();
    cfg.duration = Seconds(seconds);
    cfg.seed = seed;
    std::printf("simulating %.0f s over '%s' (seed %llu)...\n", seconds,
                cfg.profile.name.c_str(), static_cast<unsigned long long>(seed));
    telemetry::SessionDataset ds = sim::CallSession(cfg).Run();
    telemetry::SaveDataset(ds, ops[2]);
    std::printf("wrote %zu DCIs, %zu packets, %zu gNB log rows, %zu+%zu "
                "stats rows to %s/\n",
                ds.dci.size(), ds.packets.size(), ds.gnb_log.size(),
                ds.stats[0].size(), ds.stats[1].size(), ops[2].c_str());
    return 0;
  }
};

/// Parses the --inject "key=value,..." fault spec into `fs`; false (after
/// BadFlag) on a malformed pair or an unknown key.
bool ParseFaultSpec(const std::string& spec, telemetry::FaultSpec* fs) {
  // The two Duration keys (null here) are converted below.
  const std::pair<const char*, double*> keys[] = {
      {"drop", &fs->drop},           {"dup", &fs->duplicate},
      {"duplicate", &fs->duplicate}, {"reorder", &fs->reorder},
      {"reorder-span-ms", nullptr},  {"corrupt", &fs->corrupt_time},
      {"truncate", &fs->truncate_tail}, {"gap-s", nullptr},
      {"gap-at", &fs->gap_at},       {"skew-ms", &fs->skew_ms},
      {"drift-ppm", &fs->drift_ppm}};
  std::stringstream ss(spec);
  for (std::string kv; std::getline(ss, kv, ',');) {
    if (kv.empty()) continue;
    const auto eq = kv.find('=');
    const std::string key = kv.substr(0, eq);
    const auto* k = std::find_if(std::begin(keys), std::end(keys),
                                 [&](const auto& e) { return key == e.first; });
    double val = 0;
    if (eq == std::string::npos || k == std::end(keys) ||
        !ParseFinite(kv.substr(eq + 1), val)) {
      BadFlag("--inject", kv,
              "key=<finite number>, key one of drop dup reorder "
              "reorder-span-ms corrupt truncate gap-s gap-at skew-ms "
              "drift-ppm");
      return false;
    }
    if (k->second != nullptr) *k->second = val;
    if (key == "reorder-span-ms") fs->reorder_span = Seconds(val / 1000.0);
    if (key == "gap-s") fs->gap = Seconds(val);
  }
  return true;
}

struct Ingest : Parsed {
  bool repair = false;
  std::optional<std::string> out_dir, inject;
  std::uint64_t seed = 1;
  telemetry::SanitizeOptions opts;

  Command Spec() {
    return {"<dataset_dir>", 1, 1,
            "Sanitize every stream and print the health report (exit 1 if\n"
            "degraded). --repair also fixes clock skew and writes the result\n"
            "(to --out, or in place); --inject first corrupts the dataset.",
            {Switch("--repair", &repair), Str("--out", "DIR", &out_dir),
             Str("--inject", "k=v,...", &inject), U64("--seed", "N", &seed),
             Secs("--reorder-window", &opts.reorder_window),
             Secs("--gap-threshold", &opts.gap_threshold)}};
  }

  int Run(const MainOptions& mo) {
    telemetry::FaultSpec fault;
    if (inject && !ParseFaultSpec(*inject, &fault)) return 2;
    if (mo.dry_run) return 0;

    telemetry::DatasetLoadReport load;
    telemetry::SessionDataset ds = telemetry::LoadDataset(ops[0], &load);
    PrintLoaded(ops[0], ds);
    if (!load.ok()) std::fputs(load.Format().c_str(), stdout);

    if (inject) {
      telemetry::FaultSummary injected =
          telemetry::InjectFaults(ds, fault, seed);
      std::printf("injected %zu faults (seed %llu)\n", injected.total(),
                  static_cast<unsigned long long>(seed));
      // Without --repair, --out captures the *corrupted* dataset (before
      // the sanitize pass below) — a reproducible hostile fixture.
      if (!repair && out_dir) {
        telemetry::SaveDataset(ds, *out_dir);
        std::printf("corrupted dataset written to %s/\n", out_dir->c_str());
      }
    }

    opts.correct_skew = repair;
    telemetry::SanitizeReport health = telemetry::SanitizeDataset(ds, opts);
    telemetry::MergeLoadReport(health, load);
    std::fputs(health.Format().c_str(), stdout);

    if (repair) {
      const std::string& dest = out_dir ? *out_dir : ops[0];
      telemetry::SaveDataset(ds, dest);
      std::printf("repaired dataset written to %s/\n", dest.c_str());
    } else if (out_dir && !inject) {
      telemetry::SaveDataset(ds, *out_dir);
      std::printf("sanitized dataset written to %s/\n", out_dir->c_str());
    }
    return health.clean() ? 0 : 1;
  }
};

struct Analyze : Parsed {
  std::optional<std::string> config, chains_csv, features_csv, json_report;
  bool offset_correct = false, strict_lint = false, no_sanitize = false;
  analysis::DominoConfig cfg;

  Command Spec() {
    return {"<dataset_dir>", 1, 1,
            "Run the causal-chain analysis and print the report. --config\n"
            "adds linted user events/chains to the Fig. 9 graph (warnings\n"
            "block too with --strict-lint).",
            {Str("--config", "FILE", &config), Secs("--window", &cfg.window),
             Secs("--step", &cfg.step),
             Real("--min-coverage", "X", &cfg.min_coverage),
             Str("--chains-csv", "FILE", &chains_csv),
             Str("--features-csv", "FILE", &features_csv),
             Str("--json-report", "FILE", &json_report),
             Switch("--offset-correct", &offset_correct),
             Switch("--strict-lint", &strict_lint),
             Switch("--no-sanitize", &no_sanitize)}};
  }

  int Run(const MainOptions& mo) {
    if (mo.dry_run) return 0;
    telemetry::DatasetLoadReport load;
    telemetry::SessionDataset ds = telemetry::LoadDataset(ops[0], &load);
    std::optional<telemetry::SanitizeReport> health;
    if (!no_sanitize) {
      health = telemetry::SanitizeDataset(ds);
      telemetry::MergeLoadReport(*health, load);
    }
    if (offset_correct) {
      double offset_ms = telemetry::EstimateClockOffsetMs(ds);
      telemetry::AlignClocks(ds, offset_ms);
      std::printf("clock-offset correction applied: remote clock estimated "
                  "%+.1f ms ahead\n", offset_ms);
    }
    PrintLoaded(ops[0], ds);
    // Stream-health details only surface when something was actually
    // wrong, keeping clean-trace output identical to historical runs.
    if (health.has_value() && !health->clean()) {
      std::fputs(health->Format().c_str(), stdout);
    }

    analysis::CausalGraph graph =
        analysis::CausalGraph::Default(cfg.thresholds);
    if (config) {
      auto text = ReadFileOrComplain(*config);
      if (!text.has_value()) return 2;
      analysis::lint::LintOptions lopts;
      lopts.thresholds = cfg.thresholds;
      // DL407 sample budgets should reflect the window actually analysed.
      lopts.verify_options.window_ms = cfg.window.millis();
      analysis::lint::LintResult lres =
          analysis::lint::LintConfigText(*text, lopts);
      if (strict_lint) analysis::lint::PromoteWarnings(lres.sink);
      if (!lres.sink.empty()) {
        std::fputs(
            analysis::lint::RenderDiagnostics(lres.sink, *text, *config)
                .c_str(),
            stderr);
      }
      if (lres.sink.has_errors()) return 1;
      analysis::ExtendGraph(graph, lres.config, cfg.thresholds);
      std::printf("extended causal graph from %s\n", config->c_str());
    }

    analysis::Detector detector(std::move(graph), cfg);
    telemetry::DerivedTrace trace = telemetry::BuildDerivedTrace(ds);
    if (health.has_value()) trace.quality = health->quality();
    analysis::AnalysisResult result = detector.Analyze(trace);

    const telemetry::SanitizeReport* health_ptr =
        health.has_value() ? &*health : nullptr;
    std::printf("\n%s",
                analysis::BuildSummaryReport(result, detector, health_ptr)
                    .c_str());
    std::ostringstream chains, features;
    if (chains_csv) analysis::WriteChainsCsv(chains, result, detector);
    if (features_csv) analysis::WriteFeaturesCsv(features, result);
    const std::string json =
        json_report ? analysis::BuildReportJson(result, detector, health_ptr)
                    : "";
    const std::tuple<const std::optional<std::string>&, std::string,
                     const char*>
        outputs[] = {{json_report, json, "\nJSON report"},
                     {chains_csv, chains.str(), "\nchain instances"},
                     {features_csv, features.str(), "feature vectors"}};
    for (const auto& [path, text, what] : outputs) {
      if (!path) continue;
      if (!WriteOutput("analyze", *path, text)) return 2;
      std::printf("%s written to %s\n", what, path->c_str());
    }
    return 0;
  }
};

struct Convert : Parsed {
  std::optional<std::string> to;

  Command Spec() {
    return {"<in_dir> <out_dir>", 2, 2,
            "Re-encode a dataset as the binary telemetry.dtb image (default)\n"
            "or as CSVs; the input format is detected.",
            {Choice("--to", "bin|csv", &to)}};
  }

  int Run(const MainOptions& mo) {
    const std::string& in_dir = ops[0];
    const std::string& out_dir = ops[1];
    if (mo.dry_run) return 0;

    telemetry::DatasetLoadReport report;
    telemetry::SessionDataset ds = telemetry::LoadDataset(in_dir, &report);
    if (!report.ok()) {
      std::fprintf(stderr, "%s: load problems:\n%s", in_dir.c_str(),
                   report.Format().c_str());
    }
    std::string out_path = out_dir + "/ (CSV bundle)";
    if (to == "csv") {
      telemetry::SaveDataset(ds, out_dir);
    } else if (telemetry::SaveDatasetBinary(ds, out_dir)) {
      out_path = out_dir + "/" + telemetry::kBinaryDatasetFile;
    } else {
      std::fprintf(stderr, "cannot write %s/%s\n", out_dir.c_str(),
                   telemetry::kBinaryDatasetFile);
      return 1;
    }
    std::printf("converted %s -> %s: %zu DCIs, %zu packets, %zu gNB log "
                "rows, %zu+%zu stats rows\n",
                in_dir.c_str(), out_path.c_str(), ds.dci.size(),
                ds.packets.size(), ds.gnb_log.size(), ds.stats[0].size(),
                ds.stats[1].size());
    return report.ok() ? 0 : 1;
  }
};

struct Codegen : Parsed {
  std::optional<std::string> out;

  Command Spec() {
    return {"<config_file>", 1, 1,
            "Generate the standalone Python detector module for a config\n"
            "(Fig. 11); writes to stdout unless -o.",
            {Str("-o", "FILE", &out)}};
  }

  int Run(const MainOptions& mo) {
    if (mo.dry_run) return 0;
    auto text = ReadFileOrComplain(ops[0]);
    if (!text.has_value()) return 2;
    const std::string python =
        analysis::GeneratePython(analysis::ParseConfigText(*text));
    if (!out) {
      std::cout << python;
      return 0;
    }
    if (!WriteOutput("codegen", *out, python)) return 2;
    std::printf("wrote %zu bytes of Python to %s\n", python.size(),
                out->c_str());
    return 0;
  }
};

struct Lint : Parsed {
  bool strict = false, no_default_graph = false, no_verify = false;
  std::optional<std::string> format;
  std::optional<double> window;

  Command Spec() {
    return {"<config_file>", 1, 1,
            "Report every problem in a config (domino-lint + domino-verify).\n"
            "Exits with the highest severity: 0 clean, 1 warnings, 2 errors.\n"
            "'domino --lint <file>' is an alias.",
            {Switch("--strict", &strict),
             Choice("--format", "text|json", &format),
             Switch("--no-default-graph", &no_default_graph),
             Switch("--no-verify", &no_verify),
             Real("--window", "SEC", &window)}};
  }

  int Run(const MainOptions& mo) {
    if (window && *window <= 0) {
      char value[32];
      std::snprintf(value, sizeof value, "%g", *window);
      return BadFlag("--window", value, "seconds > 0");
    }
    if (mo.dry_run) return 0;
    auto text = ReadFileOrComplain(ops[0]);
    if (!text.has_value()) return 2;

    analysis::lint::LintOptions opts;
    opts.use_default_graph = !no_default_graph;
    opts.verify = !no_verify;
    if (window) opts.verify_options.window_ms = *window * 1000.0;
    analysis::lint::LintResult res =
        analysis::lint::LintConfigText(*text, opts);
    if (strict) analysis::lint::PromoteWarnings(res.sink);

    if (format == "json") {
      std::fputs(analysis::lint::FormatDiagnosticsJson(res.sink).c_str(),
                 stdout);
    } else if (res.sink.empty()) {
      std::printf("%s: no issues\n", ops[0].c_str());
    } else {
      std::fputs(
          analysis::lint::RenderDiagnostics(res.sink, *text, ops[0]).c_str(),
          stdout);
    }
    // Exit code mirrors the highest severity: 0 clean, 1 warnings, 2 errors.
    return static_cast<int>(res.sink.max_severity());
  }
};

struct Replay : Parsed {
  int interval_ms = 0;
  std::optional<std::int64_t> chunk_ms;
  std::optional<std::string> stall;

  Command Spec() {
    return {"<dataset_dir> <out_dir>", 2, 2,
            "Replay a dataset into <out_dir> as a growing capture (for 'live\n"
            "--follow'); --stall freezes one stream at a session time.",
            {Int("--interval-ms", "N", 0, 3'600'000, &interval_ms),
             Int("--chunk-ms", "N", 1, INT64_MAX / 1000, &chunk_ms),
             Str("--stall", "stream=SEC", &stall)}};
  }

  int Run(const MainOptions& mo) {
    std::size_t stream = 0;
    double stall_s = 0;
    if (stall) {
      const auto eq = stall->find('=');
      const std::string name = stall->substr(0, eq);
      while (stream < telemetry::kStreamCount &&
             (name == "gnb" ? "gnb_log" : name) !=
                 telemetry::StreamName(
                     static_cast<telemetry::StreamId>(stream))) {
        ++stream;
      }
      if (eq == std::string::npos || stream == telemetry::kStreamCount ||
          !ParseFinite(stall->substr(eq + 1), stall_s)) {
        return BadFlag("--stall", *stall,
                       "stream=SEC, stream one of dci gnb_log packets "
                       "stats_ue stats_remote");
      }
    }
    if (mo.dry_run) return 0;

    telemetry::SessionDataset ds = telemetry::LoadDataset(ops[0]);
    sim::LiveFeedOptions opts;
    if (chunk_ms) opts.chunk = Millis(*chunk_ms);
    if (stall) opts.stall_after[stream] = ds.begin + Seconds(stall_s);
    sim::LiveFeedWriter writer(ds, ops[1], opts);
    std::printf("replaying %s (%.0f s) into %s, %lld ms chunks...\n",
                ops[0].c_str(), ds.duration().seconds(), ops[1].c_str(),
                static_cast<long long>(opts.chunk.micros() / 1000));
    if (interval_ms <= 0) {
      writer.WriteAll();
    } else {
      while (writer.Step()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      }
    }
    std::printf("replay complete at t=%.1f s\n",
                (writer.cursor() - ds.begin).seconds());
    return 0;
  }
};

// Graceful-shutdown mailboxes. The handler only touches atomics; the serve
// daemon's helper thread and the live runner's drain token poll them.
std::atomic<int> g_term_signals{0};
std::atomic<int> g_hup_signals{0};
std::atomic<bool> g_drain{false};

#if !defined(_WIN32)
void OnSignal(int sig) {
  if (sig == SIGHUP) {
    g_hup_signals.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  g_term_signals.fetch_add(1, std::memory_order_relaxed);
  g_drain.store(true, std::memory_order_relaxed);
}

/// SIGTERM and SIGINT (and with `with_hup` SIGHUP) go to OnSignal.
void InstallSignalHandlers(bool with_hup) {
  struct sigaction sa {};
  sa.sa_handler = OnSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  if (with_hup) ::sigaction(SIGHUP, &sa, nullptr);
}
#endif

/// The flags that set one session's LiveOptions, declared once for `live`
/// and `serve`. All but --max-backlog are Forwarded: a process-isolation
/// child must analyse with exactly the parent's configuration, or its
/// checkpoints would be fingerprint-incompatible across attempts (the
/// supervisor passes each child its effective --max-backlog itself).
void DeclareSessionFlags(std::vector<Flag>* flags, runtime::LiveOptions* o,
                         bool* naive) {
  flags->insert(
      flags->end(),
      {Forwarded(Secs("--window", &o->detector.window)),
       Forwarded(Secs("--step", &o->detector.step)),
       Forwarded(Real("--min-coverage", "X", &o->detector.min_coverage)),
       Forwarded(Secs("--chunk-s", &o->chunk)),
       Forwarded(Secs("--horizon-s", &o->horizon)),
       Forwarded(Secs("--stall-deadline-s", &o->stall_deadline)),
       Forwarded(Int("--checkpoint-every", "N", 0, INT64_MAX,
                     &o->checkpoint_every_windows)),
       Forwarded(Int("--max-idle", "N", 0, INT_MAX, &o->max_idle_polls)),
       Forwarded(Switch("--naive", naive)),
       Int("--max-backlog", "N", 0, INT64_MAX, &o->max_backlog_windows)});
}

struct Live : Parsed {
  runtime::LiveOptions opts;
  bool naive = false;
  std::string state_dir;
  std::optional<std::string> chaos_disk;

  Command Spec() {
    Command c{
        "<dataset_dir>", 1, 1,
        "Crash-safe analysis of one growing dataset; state (default\n"
        "<dataset_dir>/live_state) resumes a killed run byte-identically.\n"
        "SIGTERM drains. Exit 0 done, 1 failed, 2 usage, 75 drained, 76\n"
        "fenced. Several sessions: 'domino serve a b c --max-attempts 1'.",
        {Str("--state", "DIR", &state_dir), Switch("--follow", &opts.follow),
         Switch("--quiet", &opts.quiet)}};
    DeclareSessionFlags(&c.flags, &opts, &naive);
    c.flags.insert(
        c.flags.end(),
        {Int("--threads", "N", 0, 4096, &opts.detector.threads),
         Int("--poll-sleep-ms", "N", 0, 3'600'000, &opts.poll_sleep_ms),
         Int("--crash-after", "N", 0, INT64_MAX,
             &opts.crash_after_checkpoints),
         Int("--chaos-crash", "N", 0, INT64_MAX, &opts.chaos_crash_after),
         Int("--chaos-fail", "N", 0, INT64_MAX, &opts.chaos_fail_after),
         Int("--chaos-wedge", "N", 0, INT64_MAX, &opts.chaos_wedge_after),
         Str("--chaos-disk", "KIND:N", &chaos_disk),
         Int("--max-records", "N", 1, INT64_MAX, &opts.input.max_records),
         Str("--fence-lease", "DIR", &opts.fence_lease_dir),
         U64("--fence-token", "N", &opts.fence_token)});
    return c;
  }

  int Run(const MainOptions& mo) {
    // Sharded fencing (shard.h): a process-isolation serve child proves
    // this lease token before every durable write; a stolen lease exits 76.
    if (opts.fence_lease_dir.empty() != (opts.fence_token == 0)) {
      return UsageError("live", "--fence-lease and --fence-token (>= 1) go "
                                "together");
    }
    if (chaos_disk && !ParseDiskFaultSpec(*chaos_disk, &opts.disk_fault)) {
      return BadFlag("--chaos-disk", *chaos_disk,
                     "enospc:N, eio:N, short:N, rename:N or fsync:N "
                     "with N >= 1");
    }
    if (mo.dry_run) return 0;
    opts.detector.incremental = !naive;
#if !defined(_WIN32)
    // SIGTERM/SIGINT drain: stop at the next poll boundary, write a drain
    // checkpoint, and exit 75 (EX_TEMPFAIL) so a supervisor — the fleet's
    // process isolation, or systemd — knows the run is resumable.
    InstallSignalHandlers(/*with_hup=*/false);
    opts.drain = &g_drain;
#endif

    const std::string& dir = ops[0];
    runtime::LiveSummary s;
    try {
      runtime::LiveRunner runner(
          dir, state_dir.empty() ? runtime::DefaultStateDir(dir) : state_dir,
          analysis::CausalGraph::Default(opts.detector.thresholds), opts);
      s = runner.Run();
    } catch (const std::exception& e) {
      std::printf("live %s: FAILED: %s\n", dir.c_str(), e.what());
      // 76: a fencing stop — the session lease was stolen and this process
      // wrote nothing further. The parent supervisor records the session
      // as fenced (terminal here, finished by the new owner).
      return std::strncmp(e.what(), "fenced", 6) == 0 ? 76 : 1;
    }
    std::printf("live %s: %ld windows, %ld chains (%ld insufficient), "
                "%ld checkpoints%s%s%s\n",
                dir.c_str(), s.windows, s.chains, s.insufficient_chains,
                s.checkpoints, s.resumed ? ", resumed" : "",
                s.drained ? ", DRAINED (resumable)" : "",
                s.stalled_streams > 0 ? ", stalled streams at end" : "");
    std::printf("  report: %s\n  chains: %s\n", s.report_path.c_str(),
                s.chains_path.c_str());
    // EX_TEMPFAIL: everything checkpointed cleanly but a signal stopped the
    // run — rerunning the same command resumes byte-identically.
    return s.drained ? 75 : 0;
  }
};

/// Parses the `--chaos idx:kind:N,...` fault schedule for `domino serve`;
/// false (after BadFlag) on a malformed item.
bool ParseChaosSpec(const std::string& spec, std::size_t sessions,
                    std::vector<runtime::SessionChaos>* out) {
  out->assign(sessions, runtime::SessionChaos{});
  std::stringstream ss(spec);
  for (std::string item; std::getline(ss, item, ',');) {
    if (item.empty()) continue;
    const auto c1 = item.find(':');
    const auto c2 = c1 == std::string::npos ? c1 : item.find(':', c1 + 1);
    std::int64_t idx = 0, n = 0;
    bool ok = c2 != std::string::npos &&
              ParseInt64In(item.substr(0, c1), 0,
                           static_cast<std::int64_t>(sessions) - 1, idx) &&
              ParseInt64In(item.substr(c2 + 1), 1, INT64_MAX, n);
    if (ok) {
      const std::string kind = item.substr(c1 + 1, c2 - c1 - 1);
      runtime::SessionChaos& c = (*out)[static_cast<std::size_t>(idx)];
      long* hook = kind == "crash"   ? &c.crash_after
                   : kind == "fail"  ? &c.fail_after
                   : kind == "wedge" ? &c.wedge_after
                                     : nullptr;
      if (hook != nullptr) {
        *hook = static_cast<long>(n);
      } else {
        ok = kind.rfind("disk-", 0) == 0 &&
             ParseDiskFaultSpec(kind.substr(5) + ":" + std::to_string(n),
                                &c.disk);
      }
    }
    if (!ok) {
      const std::string want =
          "idx:kind:N with idx < " + std::to_string(sessions) +
          ", kind crash fail wedge disk-{enospc,eio,short,rename,fsync}, "
          "N >= 1";
      BadFlag("--chaos", item, want.c_str());
      return false;
    }
  }
  return true;
}

/// Parses a `--tenant-* name=N,...` budget list into `out`; false (after
/// BadFlag) on bad syntax.
bool ParseTenantBudgets(const char* flag, const std::string& spec,
                        std::map<std::string, std::int64_t>* out) {
  std::stringstream ss(spec);
  for (std::string item; std::getline(ss, item, ',');) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    std::int64_t v = 0;
    if (eq == std::string::npos || eq == 0 ||
        !ParseInt64In(item.substr(eq + 1), 1, INT64_MAX, v)) {
      BadFlag(flag, item, "tenant=N with N >= 1");
      return false;
    }
    (*out)[item.substr(0, eq)] = v;
  }
  return true;
}

struct Serve : Parsed {
  runtime::LiveOptions opts;
  runtime::FleetOptions fopts;
  runtime::ServeDaemonOptions dopts;
  bool naive = false, quiet = false;
  std::optional<std::string> state_root, report_path, isolate, exec_path,
      chaos, tenant_backlog, tenant_records, manifest, owner;
  std::optional<std::int64_t> lease_ttl_ms, heartbeat_ms;

  Command Spec() {
    Command c{
        "<dir | tenant=dir>...", 1, SIZE_MAX,
        "Run every dataset as an isolated fault domain on a worker pool,\n"
        "retrying from checkpoints and quarantining after --max-attempts.\n"
        "--watch treats operands as roots to discover sessions under;\n"
        "SIGTERM drains, SIGHUP rescans and reloads --tunables. --owner\n"
        "shares one fleet across boxes on a common --state-root. Exit 0\n"
        "done (or drained), 2 usage, 3 windows shed, 4 a session failed.",
        {Int("--workers", "N", 0, 4096, &fopts.workers),
         Int("--max-attempts", "N", 1, 1000, &fopts.max_attempts),
         Int("--backoff-ms", "N", 0, 3'600'000, &fopts.backoff_ms),
         Int("--backoff-cap-ms", "N", 0, 3'600'000, &fopts.backoff_cap_ms),
         Int("--global-backlog", "N", 0, INT64_MAX,
             &fopts.global_backlog_windows),
         Real("--session-deadline-s", "SEC", &fopts.session_deadline_s),
         Choice("--isolate", "thread|process", &isolate),
         Str("--exec", "PATH", &exec_path),
         Str("--state-root", "DIR", &state_root),
         Str("--report", "FILE", &report_path),
         Str("--chaos", "idx:kind:N,...", &chaos),
         Str("--tenant-backlog", "t=N,...", &tenant_backlog),
         Str("--tenant-max-records", "t=N,...", &tenant_records),
         Switch("--quiet", &quiet), Switch("--watch", &dopts.watch),
         Switch("--exit-when-idle", &dopts.exit_when_idle),
         Int("--scan-interval-ms", "N", 1, 3'600'000,
             &dopts.scan_interval_ms),
         Str("--manifest", "FILE", &manifest),
         Str("--status-file", "FILE", &dopts.status_path),
         Int("--status-interval-ms", "N", 1, 3'600'000,
             &dopts.status_interval_ms),
         Str("--tunables", "FILE", &dopts.tunables_path),
         Int("--drain-grace-ms", "N", 0, 3'600'000, &dopts.drain_grace_ms),
         Str("--owner", "ID", &owner),
         Int("--lease-ttl-ms", "N", 1, 3'600'000, &lease_ttl_ms),
         Int("--heartbeat-ms", "N", 1, 3'600'000, &heartbeat_ms)}};
    DeclareSessionFlags(&c.flags, &opts, &naive);
    return c;
  }

  int Run(const MainOptions& mo) {
#if defined(_WIN32)
    if (dopts.watch) return UsageError("serve", "--watch needs POSIX signals");
#endif
    if (owner && (owner->empty() || !state_root)) {
      return UsageError("serve", "--owner needs a non-empty box id and "
                                 "--state-root (the shared root)");
    }
    // The owner id lands in file names (fleet-<owner>.manifest) and in
    // checksummed single-line records; keep it to a safe charset.
    if (owner && owner->find_first_not_of("abcdefghijklmnopqrstuvwxyz"
                                          "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                                          "0123456789._-") !=
                     std::string::npos) {
      return BadFlag("--owner", *owner,
                     "letters, digits, '.', '_' or '-' only");
    }
    if ((lease_ttl_ms || heartbeat_ms) && !owner) {
      return UsageError("serve", "--lease-ttl-ms/--heartbeat-ms only apply "
                                 "with --owner (sharded mode)");
    }
    if (dopts.watch && chaos) {
      return UsageError("serve", "--chaos indexes a fixed session list, "
                                 "not --watch discoveries");
    }

    // Operands are <dir> or <tenant>=<dir>; --state-root gives session i
    // the state directory <root>/s<i> (default: <dataset>/live_state). With
    // --watch the operands are roots instead: sessions are discovered
    // under them at runtime (untenanted, state dir derived from the path).
    std::vector<runtime::SessionSpec> specs;
    for (std::size_t i = 0; i < ops.size() && !dopts.watch; ++i) {
      runtime::SessionSpec spec;
      const auto eq = ops[i].find('=');
      if (eq != std::string::npos && eq > 0) spec.tenant = ops[i].substr(0, eq);
      spec.dataset_dir = ops[i].substr(spec.tenant.empty() ? 0 : eq + 1);
      if (spec.dataset_dir.empty()) {
        return UsageError("serve", "empty dataset dir in '" + ops[i] + "'");
      }
      if (state_root) {
        // Sharded boxes must agree on the dataset->state mapping whatever
        // order (or subset) of operands each was started with, so they use
        // the stable path-hash mapping instead of the positional s<i>.
        spec.state_dir =
            owner ? runtime::SessionStateDirFor(*state_root, spec.dataset_dir)
                  : *state_root + "/s" + std::to_string(i);
      }
      specs.push_back(std::move(spec));
    }
    if (chaos && !ParseChaosSpec(*chaos, specs.size(), &fopts.chaos)) {
      return 2;
    }
    std::map<std::string, std::int64_t> backlogs, records;
    if ((tenant_backlog && !ParseTenantBudgets("--tenant-backlog",
                                               *tenant_backlog, &backlogs)) ||
        (tenant_records && !ParseTenantBudgets("--tenant-max-records",
                                               *tenant_records, &records))) {
      return 2;
    }
    for (const auto& [tenant, v] : backlogs) {
      fopts.tenants[tenant].backlog_windows = static_cast<long>(v);
    }
    for (const auto& [tenant, v] : records) {
      fopts.tenants[tenant].input.max_records = static_cast<std::size_t>(v);
      fopts.tenants[tenant].has_input = true;
    }

    if (isolate == "process") {
      fopts.isolate = runtime::IsolationMode::kProcess;
#if defined(__linux__)
      fopts.exec_path = exec_path.value_or("/proc/self/exe");
#else
      if (!exec_path) {
        return UsageError("serve", "--isolate process needs --exec here");
      }
      fopts.exec_path = *exec_path;
#endif
      fopts.child_args = forwarded;
    }
    if (mo.dry_run) return 0;

    opts.detector.incremental = !naive;
    opts.quiet = true;  // Per-poll chatter from N sessions is noise.
    fopts.quiet = quiet;
    // Serve owns its sessions end to end, so successful ones do not need
    // their checkpoints after the run (standalone `domino live` keeps them
    // for resume-across-growth).
    fopts.gc_checkpoints = true;
    dopts.state_root = state_root.value_or("");
    if (owner) {
      dopts.owner = *owner;
      if (lease_ttl_ms) dopts.lease_ttl_ms = static_cast<long>(*lease_ttl_ms);
      if (heartbeat_ms) dopts.heartbeat_ms = static_cast<long>(*heartbeat_ms);
    }
    // Sharded boxes write per-owner manifests on the shared root, which
    // `domino fleet-status` merges. Only watch mode defaults to a manifest:
    // a plain batch serve must not silently resume an earlier run's ledger.
    if (manifest) {
      dopts.manifest_path = *manifest;
    } else if (owner) {
      dopts.manifest_path = *state_root + "/fleet-" + *owner + ".manifest";
    } else if (dopts.watch && state_root) {
      dopts.manifest_path = *state_root + "/fleet.manifest";
    }
    if (dopts.watch) dopts.watch_roots = ops;
#if !defined(_WIN32)
    InstallSignalHandlers(/*with_hup=*/true);
    dopts.term_signals = &g_term_signals;
    dopts.hup_signals = &g_hup_signals;
#endif

    analysis::CausalGraph graph =
        analysis::CausalGraph::Default(opts.detector.thresholds);
    runtime::ServeDaemonResult dres =
        runtime::RunServeDaemon(std::move(specs), std::move(graph),
                                std::move(opts), std::move(fopts), dopts);
    if (dres.fatal) {
      std::fprintf(stderr, "serve: %s\n", dres.error.c_str());
      return 1;
    }
    const runtime::FleetReport& report = dres.report;
    std::fputs(runtime::FormatFleetReportText(report).c_str(), stdout);
    if (report_path) {
      if (!WriteOutput("serve", *report_path,
                       runtime::BuildFleetReportJson(report))) {
        return 2;
      }
      std::printf("JSON report written to %s\n", report_path->c_str());
    }
    // A drain is a clean stop — the manifest carries the rest; otherwise
    // quarantines trump shedding. Fenced sessions are not failures either:
    // another box finished them.
    if (report.drained) return 0;
    for (const auto& o : report.outcomes) {
      if (!o.ok && !o.fenced) return 4;
    }
    return report.total_shed_windows > 0 ? 3 : 0;
  }
};

struct FleetStatus : Parsed {
  bool with_owners = false;
  std::optional<std::string> out;

  Command Spec() {
    return {"<state_root>", 1, 1,
            "Merge every box's manifest and done markers into one JSON fleet\n"
            "view. Exit 0 all terminal, 3 some open, 4 some quarantined.",
            {Switch("--owners", &with_owners), Str("--out", "FILE", &out)}};
  }

  int Run(const MainOptions& mo) {
    if (mo.dry_run) return 0;
    runtime::FleetStatusView view;
    std::string err;
    if (!runtime::CollectFleetStatus(ops[0], &view, &err)) {
      std::fprintf(stderr, "fleet-status: %s\n", err.c_str());
      return 1;
    }
    const std::string json = runtime::BuildFleetStatusJson(view, with_owners);
    if (!out) {
      std::fputs(json.c_str(), stdout);
    } else if (!WriteOutput("fleet-status", *out, json)) {
      return 2;
    }
    // 0 = everything terminal and clean, 3 = some session still open,
    // 4 = some session quarantined (mirrors serve's degraded/failed codes).
    bool open = false, quarantined = false;
    for (const auto& s : view.sessions) {
      if (s.status == 0 || s.status == 3) open = true;
      if (s.status == 2) quarantined = true;
    }
    if (quarantined) return 4;
    return open ? 3 : 0;
  }
};

// --- dispatch ----------------------------------------------------------------

struct Entry {
  const char* name;
  int (*run)(const char*, const std::vector<std::string>&,
             const MainOptions&);
  std::string (*synopsis)(const char*);
};

template <class C>
constexpr Entry Cmd(const char* name) {
  return {name,
          [](const char* n, const std::vector<std::string>& args,
             const MainOptions& mo) {
            C c;
            const int rc = Parse(n, c.Spec(), args, &c);
            return rc >= 0 ? rc : c.Run(mo);
          },
          [](const char* n) { return Synopsis(n, C().Spec()); }};
}

const Entry kCommands[] = {
    Cmd<Simulate>("simulate"), Cmd<Ingest>("ingest"),
    Cmd<Analyze>("analyze"),   Cmd<Live>("live"),
    Cmd<Serve>("serve"),       Cmd<FleetStatus>("fleet-status"),
    Cmd<Replay>("replay"),     Cmd<Convert>("convert"),
    Cmd<Codegen>("codegen"),   Cmd<Lint>("lint")};

void PrintAllUsage(std::FILE* to) {
  std::string text = "usage:\n";
  for (const Entry& e : kCommands) text += e.synopsis(e.name);
  text += "  domino --help | --version | <command> --help\ncells:";
  for (const Cell& c : kCells) text += std::string(" ") + c.name;
  std::fprintf(to, "%s\n", text.c_str());
}

}  // namespace

int DominoMain(std::vector<std::string> args, const MainOptions& mo) {
  if (args.empty()) {
    PrintAllUsage(stderr);
    return 2;
  }
  const std::string cmd = args[0] == "--lint" ? "lint" : args[0];
  args.erase(args.begin());
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    PrintAllUsage(stdout);
    return 0;
  }
  if (cmd == "--version" || cmd == "version") {
    std::printf("domino %s\n", DOMINO_VERSION);
    return 0;
  }
  for (const Entry& e : kCommands) {
    if (cmd != e.name) continue;
    try {
      return e.run(e.name, args, mo);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "error: %s\n", ex.what());
    } catch (...) {
      std::fprintf(stderr, "error: unknown exception\n");
    }
    return 1;
  }
  std::fprintf(stderr, "domino: unknown command '%s'\n", cmd.c_str());
  PrintAllUsage(stderr);
  return 2;
}

}  // namespace domino::cli
