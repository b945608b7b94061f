// Standalone driver for the fuzz harnesses, for toolchains without
// libFuzzer (GCC).  It feeds LLVMFuzzerTestOneInput every file of a corpus
// directory, then a fixed-seed budget of kMutations mutations of those
// files: truncations, byte flips and splices of two files.  A crash, an
// uncaught exception or a sanitizer report fails the run.
//
//   fuzz_<name> <corpus-dir>
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

namespace {

using Bytes = std::vector<std::uint8_t>;

constexpr long kMutations = 20000;

Bytes read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

void feed(const Bytes& input) {
  (void)LLVMFuzzerTestOneInput(input.data(), input.size());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-dir>\n", argv[0]);
    return 2;
  }
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(argv[1]))
    if (entry.is_regular_file()) paths.push_back(entry.path());
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    std::fprintf(stderr, "%s: no corpus files in %s\n", argv[0], argv[1]);
    return 1;
  }
  std::vector<Bytes> corpus;
  for (const auto& path : paths) corpus.push_back(read_file(path));
  for (const Bytes& input : corpus) feed(input);

  std::mt19937_64 rng(0x5eedf00dULL);
  const auto below = [&rng](std::size_t n) {
    return n == 0 ? std::size_t{0} : static_cast<std::size_t>(rng() % n);
  };
  for (long i = 0; i < kMutations; ++i) {
    const Bytes& base = corpus[below(corpus.size())];
    Bytes input = base;
    switch (rng() % 3) {
      case 0:  // truncation
        input.resize(below(base.size()));
        break;
      case 1:  // one to four byte flips
        for (std::size_t flips = 1 + below(4); flips > 0 && !input.empty();
             --flips)
          input[below(input.size())] ^=
              static_cast<std::uint8_t>(1u << below(8));
        break;
      default: {  // splice: a prefix of one file, a suffix of another
        const Bytes& other = corpus[below(corpus.size())];
        input.resize(below(base.size() + 1));
        input.insert(input.end(),
                     other.begin() + static_cast<std::ptrdiff_t>(
                                         below(other.size() + 1)),
                     other.end());
        break;
      }
    }
    feed(input);
  }
  std::printf("%s: %zu corpus files, %ld mutations\n", argv[0], corpus.size(),
              kMutations);
  return 0;
}
