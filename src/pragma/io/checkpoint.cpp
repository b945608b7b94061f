#include "pragma/io/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "pragma/io/serial.hpp"
#include "pragma/obs/metrics.hpp"
#include "pragma/obs/tracer.hpp"
#include "pragma/util/crc32.hpp"
#include "pragma/util/logging.hpp"

namespace pragma::io {

namespace fs = std::filesystem;

namespace {
obs::Counter& checkpoint_writes_counter() {
  static obs::Counter& counter = obs::metrics().counter("io.checkpoint.writes");
  return counter;
}
obs::Counter& checkpoint_write_failures_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("io.checkpoint.write_failures");
  return counter;
}
obs::Counter& checkpoint_gc_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("io.checkpoint.gc_removed");
  return counter;
}
obs::Histogram& checkpoint_bytes_histogram() {
  static obs::Histogram& histogram = obs::metrics().histogram(
      "io.checkpoint.bytes",
      obs::HistogramOptions::exponential(1024.0, 4.0, 12));
  return histogram;
}

/// fsync a descriptor / a directory with a bounded, descriptive error.
util::Status fsync_fd(int fd, const std::string& what) {
  if (::fsync(fd) != 0)
    return util::Status::internal("fsync failed for " + what + ": " +
                                  std::strerror(errno));
  return util::Status::ok();
}

util::Status fsync_dir(const std::string& dir) {
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) return util::Status::ok();  // e.g. network fs without dirs
  const util::Status status = fsync_fd(dir_fd, dir);
  ::close(dir_fd);
  return status;
}

}  // namespace

util::Status write_all(int fd, const std::uint8_t* bytes, std::size_t size,
                       const std::string& what) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, bytes + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return util::Status::internal("write failed for " + what + ": " +
                                    std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  return util::Status::ok();
}

std::string GenerationDir::path_for(std::uint64_t generation) const {
  char digits[24];
  std::snprintf(digits, sizeof digits, "%08llu",
                static_cast<unsigned long long>(generation));
  return (fs::path(dir) / (prefix + digits + suffix)).string();
}

std::vector<std::uint64_t> GenerationDir::list() const {
  std::vector<std::uint64_t> result;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    // "<prefix><digits><suffix>"; anything else, ".tmp" orphans
    // included, is not a generation.
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() + suffix.size() ||
        !name.starts_with(prefix) || !name.ends_with(suffix))
      continue;
    const char* last = name.data() + name.size() - suffix.size();
    std::uint64_t generation = 0;
    const auto [end, error] =
        std::from_chars(name.data() + prefix.size(), last, generation);
    if (error == std::errc() && end == last && generation > 0)
      result.push_back(generation);
  }
  std::sort(result.begin(), result.end());
  return result;
}

util::Status GenerationDir::write_tmp(
    std::uint64_t generation, const std::vector<std::uint8_t>& bytes) const {
  const std::string tmp_path = path_for(generation) + ".tmp";
  const int fd = ::open(tmp_path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0)
    return util::Status::internal("cannot open " + tmp_path + ": " +
                                  std::strerror(errno));
  util::Status status = write_all(fd, bytes.data(), bytes.size(), tmp_path);
  if (status.is_ok()) status = fsync_fd(fd, tmp_path);
  ::close(fd);
  if (!status.is_ok()) ::unlink(tmp_path.c_str());
  return status;
}

util::Status GenerationDir::publish(std::uint64_t generation) const {
  const std::string final_path = path_for(generation);
  const std::string tmp_path = final_path + ".tmp";
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    const util::Status status = util::Status::internal(
        "rename to " + final_path + " failed: " + std::strerror(errno));
    ::unlink(tmp_path.c_str());
    return status;
  }
  // Make the rename itself durable.
  return fsync_dir(dir);
}

util::Expected<std::vector<std::uint8_t>> GenerationDir::read(
    std::uint64_t generation, std::uint64_t max_bytes) const {
  const std::string path = path_for(generation);
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::not_found("cannot open " + path);
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  if (ec)
    return util::Status::internal("cannot stat " + path + ": " +
                                  ec.message());
  // Reject oversized files before reading them into memory.
  if (size > max_bytes)
    return util::Status::out_of_range(
        path + " is " + std::to_string(size) + " bytes, above the cap");
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (!bytes.empty() &&
      !in.read(reinterpret_cast<char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size())))
    return util::Status::internal("short read from " + path);
  return bytes;
}

std::vector<std::uint8_t> encode_envelope(
    const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out(kCheckpointHeaderBytes + payload.size());
  std::memcpy(out.data(), kCheckpointMagic, sizeof kCheckpointMagic);
  put_u32(out.data() + 8, kCheckpointVersion);
  put_u32(out.data() + 12, 0);  // flags
  put_u64(out.data() + 16, payload.size());
  put_u32(out.data() + 24, util::crc32(payload.data(), payload.size()));
  put_u32(out.data() + 28, util::crc32(out.data(), 28));
  // An empty payload's data() may be null, which memcpy must not see.
  if (!payload.empty())
    std::memcpy(out.data() + kCheckpointHeaderBytes, payload.data(),
                payload.size());
  return out;
}

util::Expected<std::vector<std::uint8_t>> decode_envelope(
    const std::uint8_t* bytes, std::size_t size,
    std::uint64_t max_payload_bytes) {
  if (size < kCheckpointHeaderBytes)
    return util::Status::data_loss(
        "checkpoint shorter than its 32-byte header (" +
        std::to_string(size) + " bytes)");
  if (std::memcmp(bytes, kCheckpointMagic, sizeof kCheckpointMagic) != 0)
    return util::Status::invalid("bad checkpoint magic");
  const std::uint32_t header_crc = get_u32(bytes + 28);
  if (util::crc32(bytes, 28) != header_crc)
    return util::Status::data_loss("checkpoint header CRC mismatch");
  const std::uint32_t version = get_u32(bytes + 8);
  if (version != kCheckpointVersion)
    return util::Status::unimplemented("checkpoint format version " +
                                       std::to_string(version));
  if (get_u32(bytes + 12) != 0)
    return util::Status::invalid("nonzero reserved checkpoint flags");
  const std::uint64_t declared = get_u64(bytes + 16);
  if (declared > max_payload_bytes)
    return util::Status::out_of_range(
        "declared payload of " + std::to_string(declared) +
        " bytes exceeds cap of " + std::to_string(max_payload_bytes));
  if (declared != size - kCheckpointHeaderBytes)
    return util::Status::data_loss(
        "declared payload size " + std::to_string(declared) +
        " does not match file contents (" +
        std::to_string(size - kCheckpointHeaderBytes) + " bytes) — torn write");
  const std::uint8_t* payload = bytes + kCheckpointHeaderBytes;
  if (util::crc32(payload, declared) != get_u32(bytes + 24))
    return util::Status::data_loss("checkpoint payload CRC mismatch");
  return std::vector<std::uint8_t>(payload, payload + declared);
}

util::Expected<std::vector<std::uint8_t>> decode_envelope(
    const std::vector<std::uint8_t>& bytes,
    std::uint64_t max_payload_bytes) {
  return decode_envelope(bytes.data(), bytes.size(), max_payload_bytes);
}

CheckpointStore::CheckpointStore(CheckpointStoreOptions options)
    : options_(std::move(options)), files_{options_.dir, "ckpt-", ".pragma"} {
  if (options_.keep_last_n < 1) options_.keep_last_n = 1;
}

std::uint64_t CheckpointStore::next_generation() const {
  const std::vector<std::uint64_t> existing = generations();
  return existing.empty() ? 1 : existing.back() + 1;
}

util::Status CheckpointStore::write(
    const std::vector<std::uint8_t>& payload) {
  PRAGMA_SPAN_VAR(span, "io", "CheckpointStore.write");
  span.annotate("payload_bytes", payload.size());
  const util::Status status = write_impl(payload);
  if (status.is_ok()) {
    checkpoint_writes_counter().add();
    checkpoint_bytes_histogram().observe(static_cast<double>(payload.size()));
  } else {
    checkpoint_write_failures_counter().add();
    span.annotate("error", status.to_string());
  }
  return status;
}

util::Status CheckpointStore::write_impl(
    const std::vector<std::uint8_t>& payload) {
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec)
    return util::Status::internal("cannot create checkpoint dir " +
                                  options_.dir + ": " + ec.message());

  const std::uint64_t generation = next_generation();
  if (util::Status status =
          files_.write_tmp(generation, encode_envelope(payload));
      !status.is_ok())
    return status;
  if (util::Status status = files_.publish(generation); !status.is_ok())
    return status;
  trim(generations(), generation);
  return util::Status::ok();
}

int CheckpointStore::gc() {
  const std::vector<std::uint64_t> existing = generations();
  if (existing.size() <= static_cast<std::size_t>(options_.keep_last_n))
    return 0;

  // The latest recoverable state is sacrosanct: find the newest
  // generation that passes full validation (torn or bit-flipped newer
  // files do not count) and exempt it from the sweep.
  std::uint64_t newest_valid = 0;
  for (auto it = existing.rbegin(); it != existing.rend(); ++it) {
    if (load_generation(*it)) {
      newest_valid = *it;
      break;
    }
  }
  return trim(existing, newest_valid);
}

int CheckpointStore::trim(const std::vector<std::uint64_t>& existing,
                          std::uint64_t spared) {
  const auto keep = static_cast<std::size_t>(options_.keep_last_n);
  if (existing.size() <= keep) return 0;
  int removed = 0;
  std::size_t excess = existing.size() - keep;
  for (std::size_t i = 0; i < existing.size() && excess > 0; ++i) {
    if (existing[i] == spared) continue;
    if (::unlink(path_for(existing[i]).c_str()) == 0) ++removed;
    --excess;
  }
  if (removed > 0)
    checkpoint_gc_counter().add(static_cast<std::uint64_t>(removed));
  return removed;
}

util::Expected<LoadedCheckpoint> CheckpointStore::load_generation(
    std::uint64_t generation) const {
  PRAGMA_SPAN_VAR(span, "io", "CheckpointStore.load_generation");
  span.annotate("generation", generation);
  util::Expected<std::vector<std::uint8_t>> bytes = files_.read(
      generation, options_.max_payload_bytes + kCheckpointHeaderBytes);
  if (!bytes) return bytes.status();
  util::Expected<std::vector<std::uint8_t>> payload =
      decode_envelope(bytes.value(), options_.max_payload_bytes);
  if (!payload) return payload.status();
  return LoadedCheckpoint{generation, std::move(payload).value()};
}

util::Expected<LoadedCheckpoint> CheckpointStore::load_latest_valid(
    int* rejected) const {
  if (rejected) *rejected = 0;
  std::vector<std::uint64_t> existing = generations();
  for (auto it = existing.rbegin(); it != existing.rend(); ++it) {
    util::Expected<LoadedCheckpoint> loaded = load_generation(*it);
    if (loaded) return loaded;
    if (rejected) ++*rejected;
    util::log_warn("checkpoint generation ", *it, " rejected: ",
                   loaded.status().to_string());
  }
  return util::Status::not_found("no valid checkpoint generation in " +
                                 options_.dir);
}

}  // namespace pragma::io
