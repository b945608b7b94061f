// Byte pins for the two durable file formats.  Every checkpoint generation
// of two deterministic persisted runs and every WAL generation of a
// scripted journal is listed as one line (tag, file name, size, CRC-32)
// and compared with ci/durable_reference.out.  A refactor of the
// checkpoint store, the journal or their payload codecs must leave these
// bytes as they are, so files written by an older build still recover.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "pragma/core/managed_run.hpp"
#include "pragma/service/journal.hpp"
#include "pragma/util/crc32.hpp"

namespace pragma::service {
namespace {

namespace fs = std::filesystem;

/// One line per regular file in `dir`, in name order.
void list_files(std::ostringstream& out, const std::string& tag,
                const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.is_regular_file()) files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  for (const fs::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
    char crc[16];
    std::snprintf(crc, sizeof crc, "%08x",
                  util::crc32(bytes.data(), bytes.size()));
    out << tag << ' ' << file.filename().string() << ' ' << bytes.size()
        << ' ' << crc << '\n';
  }
}

/// The persisted generations of a 60-step managed run on 8 heterogeneous
/// nodes with background load and a node failure, every one kept.
void checkpoint_lines(std::ostringstream& out, const fs::path& root,
                      bool ft) {
  core::ManagedRunConfig config;
  config.app.coarse_steps = 60;
  config.nprocs = 8;
  config.capacity_spread = 0.35;
  config.with_background_load = true;
  config.system_sensitive = true;
  config.modeled_partition_s_per_cell = 50e-9;
  config.ft.enabled = ft;
  config.ft.channel.drop_probability = 0.05;
  config.persist.enabled = true;
  config.persist.dir = (root / (ft ? "ckpt-ft" : "ckpt")).string();
  config.persist.keep_last_n = 1000;
  core::ManagedRun run(config);
  run.schedule_failure(60.0, 3, 120.0);
  (void)run.run();
  list_files(out, ft ? "ckpt-ft-on" : "ckpt-ft-off", config.persist.dir);
}

/// The WAL generations after single appends, a batch, tombstones, an
/// explicit compaction, a later append and a reopen.
void journal_lines(std::ostringstream& out, const fs::path& root) {
  JournalConfig config;
  config.enabled = true;
  config.fsync = false;
  config.dir = (root / "wal").string();
  const RunSpec base;
  {
    Journal journal(config);
    ASSERT_TRUE(journal.open().has_value());
    for (std::size_t i = 0; i < 3; ++i)
      ASSERT_TRUE(journal.append(base.derived(i)).has_value());
    std::vector<RunSpec> batch;
    for (std::size_t i = 3; i < 8; ++i) batch.push_back(base.derived(i));
    std::vector<const RunSpec*> pointers;
    for (const RunSpec& spec : batch) pointers.push_back(&spec);
    ASSERT_TRUE(journal.append_batch(pointers).has_value());
    journal.tombstone(1);
    journal.tombstone(4);
    list_files(out, "wal-appended", config.dir);
    ASSERT_TRUE(journal.compact().is_ok());
    ASSERT_TRUE(journal.append(base.derived(8)).has_value());
    list_files(out, "wal-compacted", config.dir);
  }
  Journal reopened(config);
  ASSERT_TRUE(reopened.open().has_value());
  list_files(out, "wal-reopened", config.dir);
}

TEST(Durability, FilesMatchCommittedReference) {
  const fs::path root = fs::temp_directory_path() /
                        ("pragma-durability-" + std::to_string(::getpid()));
  fs::remove_all(root);
  std::ostringstream text;
  checkpoint_lines(text, root, /*ft=*/false);
  checkpoint_lines(text, root, /*ft=*/true);
  journal_lines(text, root);
  fs::remove_all(root);
  if (HasFatalFailure()) return;

  const std::string path =
      std::string(PRAGMA_SOURCE_DIR) + "/ci/durable_reference.out";
  std::ifstream in(path, std::ios::binary);
  std::ostringstream expected;
  expected << in.rdbuf();
  const std::string actual = text.str();
  if (actual == expected.str()) return;
  std::ofstream("durable_reference.actual", std::ios::binary) << actual;
  std::istringstream a(actual);
  std::istringstream e(expected.str());
  std::string a_line;
  std::string e_line;
  for (int n = 1;; ++n) {
    const bool more_a = static_cast<bool>(std::getline(a, a_line));
    const bool more_e = static_cast<bool>(std::getline(e, e_line));
    if (!more_a && !more_e) break;
    if (!more_a || !more_e || a_line != e_line) {
      ADD_FAILURE() << path << " differs at line " << n << "\n  expected: "
                    << (more_e ? e_line : "<eof>")
                    << "\n  actual:   " << (more_a ? a_line : "<eof>");
      return;
    }
  }
}

}  // namespace
}  // namespace pragma::service
