// Tests for Python code generation (Fig. 11): structural checks on the
// emitted module, plus an execution test that runs the generated detector
// under python3 (skipped if no interpreter is available).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "domino/codegen.h"
#include "scratch_dir.h"

namespace domino::analysis {
namespace {

DominoConfigFile ExampleConfig() {
  return ParseConfigText(R"(
event delay_surge: max(fwd.owd_ms) > 200 and trend_up(fwd.owd_ms)
chain surge_chain: cross_traffic -> tbs_drop -> delay_surge -> target_bitrate_drop
chain rev_chain: harq_retx@rev -> rev_delay_up -> pushback_drop
)");
}

TEST(CodegenTest, EmitsDetectorsForAllNodes) {
  std::string py = GeneratePython(ExampleConfig());
  EXPECT_NE(py.find("def detect_delay_surge(w):"), std::string::npos);
  EXPECT_NE(py.find("def detect_cross_traffic(w):"), std::string::npos);
  EXPECT_NE(py.find("def detect_tbs_drop(w):"), std::string::npos);
  EXPECT_NE(py.find("def detect_target_bitrate_drop(w):"), std::string::npos);
  // @rev node gets a sanitised function name and rev-scoped series.
  EXPECT_NE(py.find("def detect_harq_retx_rev(w):"), std::string::npos);
  EXPECT_NE(py.find("w[\"rev.harq_retx\"]"), std::string::npos);
}

TEST(CodegenTest, EmitsChainTable) {
  std::string py = GeneratePython(ExampleConfig());
  EXPECT_NE(py.find("(\"surge_chain\", [\"cross_traffic\", \"tbs_drop\", "
                    "\"delay_surge\", \"target_bitrate_drop\"])"),
            std::string::npos);
  EXPECT_NE(py.find("DETECTORS = {"), std::string::npos);
  EXPECT_NE(py.find("def analyze(windows):"), std::string::npos);
}

TEST(CodegenTest, CustomExpressionInlined) {
  std::string py = GeneratePython(ExampleConfig());
  EXPECT_NE(py.find("dsl_max(w[\"fwd.owd_ms\"]) > 200"), std::string::npos);
}

TEST(CodegenTest, ThresholdsSubstituted) {
  EventThresholds th;
  th.harq_retx_count = 25;
  std::string expr =
      PythonForBuiltin(EventRef{EventType::kHarqRetx, PathLeg::kFwd}, th);
  EXPECT_EQ(expr, "len(w[\"fwd.harq_retx\"]) > 25");
}

TEST(CodegenTest, EveryBuiltinHasPython) {
  EventThresholds th;
  for (int i = 1; i <= 20; ++i) {
    std::string expr =
        PythonForBuiltin(EventRef{static_cast<EventType>(i)}, th);
    EXPECT_FALSE(expr.empty());
    EXPECT_EQ(expr, PythonForBuiltin(
                        EventRef{static_cast<EventType>(i), PathLeg::kFwd},
                        th));
  }
}

TEST(CodegenTest, GeneratedPythonExecutes) {
  if (std::system("python3 -c 'pass' > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }
  std::string py = GeneratePython(ExampleConfig());
  // Drive the module with two windows: one where the surge chain is fully
  // active and one quiet window; assert analyze() flags exactly window 0.
  py += R"PY(

def _mkwindow(active):
    w = {}
    keys = ["fwd.owd_ms", "fwd.prb_self", "fwd.prb_other", "fwd.tbs",
            "fwd.app_bitrate", "fwd.tbs_bitrate", "rev.harq_retx",
            "rev.owd_ms", "sender.target_bitrate", "sender.pushback_rate"]
    for k in keys:
        w[k] = []
    if active:
        w["fwd.owd_ms"] = [30.0 + i * 3 for i in range(100)]
        w["fwd.prb_self"] = [5.0] * 100
        w["fwd.prb_other"] = [50.0] * 100
        w["fwd.tbs"] = [1000.0] * 50 + [300.0] * 50
        w["fwd.app_bitrate"] = [2e6] * 100
        w["fwd.tbs_bitrate"] = [1e6 if i % 5 == 0 else 4e6 for i in range(100)]
        w["sender.target_bitrate"] = [2e6] * 50 + [1e6] * 50
    else:
        w["fwd.owd_ms"] = [30.0] * 100
        w["fwd.prb_self"] = [5.0] * 100
        w["fwd.prb_other"] = [0.0] * 100
        w["fwd.tbs"] = [1000.0] * 100
        w["fwd.app_bitrate"] = [2e6] * 100
        w["fwd.tbs_bitrate"] = [4e6] * 100
        w["sender.target_bitrate"] = [2e6] * 100
    return w

hits = analyze([_mkwindow(True), _mkwindow(False)])
assert ((0, "surge_chain") in hits), hits
assert not any(i == 1 for i, _ in hits), hits
print("CODEGEN_OK")
)PY";
  const auto path = std::filesystem::path(
      testing_util::FreshScratchDir("codegen")) / "domino_codegen.py";
  {
    std::ofstream f(path);
    f << py;
  }
  std::string cmd = "python3 " + path.string() + " > " + path.string() +
                    ".out 2>&1";
  int rc = std::system(cmd.c_str());
  std::ifstream out(path.string() + ".out");
  std::string output((std::istreambuf_iterator<char>(out)),
                     std::istreambuf_iterator<char>());
  EXPECT_EQ(rc, 0) << output;
  EXPECT_NE(output.find("CODEGEN_OK"), std::string::npos) << output;
}

}  // namespace
}  // namespace domino::analysis
