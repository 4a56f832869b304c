// Standalone driver for the fuzz harnesses on toolchains without a
// libFuzzer runtime (gcc). It mirrors the libFuzzer CLI closely enough
// that the same ctest command line works either way:
//
//   fuzz_x -runs=0 DIR...   replay every file under DIR (regression mode)
//   fuzz_x -runs=N DIR...   additionally run N deterministic random
//                           mutations of the corpus (smoke fuzzing)
//   fuzz_x FILE...          replay the named files
//
// Unknown -flags are ignored so a libFuzzer invocation pasted from CI does
// not break. Mutations use SplitMix64 seeded by -seed=N (default 1): a
// given (corpus, seed, runs) triple always replays the same inputs, so a
// crash found here reproduces without keeping the mutated bytes around —
// though the crashing input is also dumped to crash-<n>.bin for committing
// as a regression fixture.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

namespace {

/// Inputs are read (and mutated) up to 1 MiB, libFuzzer's own cap on corpus
/// entries: the tail corpus holds inputs that span several of the tail
/// reader's 64 KiB read blocks.
constexpr std::size_t kMaxInputBytes = 1 << 20;

std::uint64_t g_rng = 1;

std::uint64_t Rand() {
  std::uint64_t z = (g_rng += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool ReadFile(const std::filesystem::path& p, std::vector<std::uint8_t>* out) {
  std::ifstream f(p, std::ios::binary);
  if (!f) return false;
  out->assign(std::istreambuf_iterator<char>(f),
              std::istreambuf_iterator<char>());
  if (out->size() > kMaxInputBytes) out->resize(kMaxInputBytes);
  return true;
}

/// One random edit: bit flip, byte overwrite, truncate, insert, or
/// duplicate a chunk. Mutated inputs stay under kMaxInputBytes.
void MutateOnce(std::vector<std::uint8_t>* buf) {
  if (buf->empty()) {
    buf->push_back(static_cast<std::uint8_t>(Rand()));
    return;
  }
  const std::size_t pos = Rand() % buf->size();
  switch (Rand() % 5) {
    case 0:
      (*buf)[pos] ^= static_cast<std::uint8_t>(1u << (Rand() % 8));
      break;
    case 1:
      (*buf)[pos] = static_cast<std::uint8_t>(Rand());
      break;
    case 2:
      buf->resize(pos + 1);
      break;
    case 3:
      if (buf->size() < kMaxInputBytes) {
        buf->insert(buf->begin() + static_cast<std::ptrdiff_t>(pos),
                    static_cast<std::uint8_t>(Rand()));
      }
      break;
    case 4: {
      const std::size_t len = 1 + Rand() % 64;
      const std::size_t n =
          std::min(len, std::min(buf->size() - pos,
                                 kMaxInputBytes - buf->size()));
      std::vector<std::uint8_t> chunk(buf->begin() + static_cast<std::ptrdiff_t>(pos),
                                      buf->begin() + static_cast<std::ptrdiff_t>(pos + n));
      buf->insert(buf->begin() + static_cast<std::ptrdiff_t>(pos),
                  chunk.begin(), chunk.end());
      break;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  long runs = 0;
  std::vector<std::filesystem::path> inputs;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "-runs=", 6) == 0) {
      runs = std::strtol(a + 6, nullptr, 10);
    } else if (std::strncmp(a, "-seed=", 6) == 0) {
      g_rng = std::strtoull(a + 6, nullptr, 10);
    } else if (a[0] == '-' && a[1] != '\0') {
      // Ignore libFuzzer flags we do not implement.
    } else {
      inputs.emplace_back(a);
    }
  }

  std::vector<std::vector<std::uint8_t>> corpus;
  long replayed = 0;
  for (const auto& in : inputs) {
    std::error_code ec;
    if (std::filesystem::is_directory(in, ec)) {
      std::vector<std::filesystem::path> files;
      for (const auto& e :
           std::filesystem::recursive_directory_iterator(in, ec)) {
        if (e.is_regular_file()) files.push_back(e.path());
      }
      // Directory iteration order is filesystem-dependent: sort so replay
      // order (and therefore the mutation stream) is reproducible.
      std::sort(files.begin(), files.end());
      for (const auto& p : files) {
        std::vector<std::uint8_t> buf;
        if (!ReadFile(p, &buf)) continue;
        std::printf("driver: replay %s (%zu bytes)\n", p.c_str(), buf.size());
        LLVMFuzzerTestOneInput(buf.data(), buf.size());
        ++replayed;
        corpus.push_back(std::move(buf));
      }
    } else {
      std::vector<std::uint8_t> buf;
      if (!ReadFile(in, &buf)) {
        std::fprintf(stderr, "driver: cannot read %s\n", in.c_str());
        return 1;
      }
      std::printf("driver: replay %s (%zu bytes)\n", in.c_str(), buf.size());
      LLVMFuzzerTestOneInput(buf.data(), buf.size());
      ++replayed;
      corpus.push_back(std::move(buf));
    }
  }

  if (runs > 0 && corpus.empty()) corpus.push_back({});
  for (long r = 0; r < runs; ++r) {
    std::vector<std::uint8_t> buf = corpus[Rand() % corpus.size()];
    const std::size_t edits = 1 + Rand() % 8;
    for (std::size_t e = 0; e < edits; ++e) MutateOnce(&buf);
    // Persist before running: if the harness crashes the process, the
    // input that killed it is already on disk for triage.
    {
      std::ofstream f("crash-candidate.bin",
                      std::ios::binary | std::ios::trunc);
      f.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
    }
    LLVMFuzzerTestOneInput(buf.data(), buf.size());
  }
  std::remove("crash-candidate.bin");
  std::printf("driver: done (%ld replayed, %ld mutated, 0 crashes)\n",
              replayed, runs);
  return 0;
}
