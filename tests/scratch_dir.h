// Process-private scratch space for tests that write files.
//
// ctest runs every test case in its own process and `ctest -j` runs those
// processes concurrently, so a fixture written to a fixed path under /tmp
// by one process can be deleted or rewritten by another while it is still
// being read. Every on-disk fixture lives under ScratchRoot() instead: one
// mkdtemp directory per process, removed when the process exits.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace domino::testing_util {

/// This process's scratch root, created on first use and removed at exit.
inline const std::filesystem::path& ScratchRoot() {
  struct Root {
    std::filesystem::path path;
    Root() {
      std::string tmpl = (std::filesystem::path(::testing::TempDir()) /
                          "domino_test_XXXXXX")
                             .string();
      if (::mkdtemp(tmpl.data()) == nullptr) {
        throw std::runtime_error("cannot create a scratch dir in " +
                                 ::testing::TempDir());
      }
      path = tmpl;
    }
    ~Root() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
    Root(const Root&) = delete;
    Root& operator=(const Root&) = delete;
  };
  static const Root root;
  return root.path;
}

/// Empty directory `name` under ScratchRoot() (emptied if it exists).
inline std::string FreshScratchDir(const std::string& name) {
  const std::filesystem::path dir = ScratchRoot() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

}  // namespace domino::testing_util
