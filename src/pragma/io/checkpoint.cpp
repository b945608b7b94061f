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

constexpr std::uint32_t kCheckpointTypes[] = {kCheckpointRecordType};

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

/// Open `path` with `flags`, write all of `bytes` and fsync it.
util::Status write_synced(const std::string& path, int flags,
                          const std::vector<std::uint8_t>& bytes) {
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC, 0644);
  if (fd < 0)
    return util::Status::internal("cannot open " + path + ": " +
                                  std::strerror(errno));
  util::Status status = write_all(fd, bytes.data(), bytes.size(), path);
  if (status.is_ok()) status = fsync_fd(fd, path);
  ::close(fd);
  return status;
}

}  // namespace

std::vector<std::uint8_t> encode_log_header() {
  std::vector<std::uint8_t> out(kLogHeaderBytes);
  std::memcpy(out.data(), kLogMagic, sizeof kLogMagic);
  put_u32(out.data() + 8, kLogVersion);
  put_u32(out.data() + 12, util::crc32(out.data(), 12));
  return out;
}

std::vector<std::uint8_t> encode_log_frame(
    std::uint32_t type, std::uint64_t seq,
    const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out(kLogFrameHeaderBytes + payload.size());
  std::memcpy(out.data(), kLogFrameMagic, sizeof kLogFrameMagic);
  put_u32(out.data() + 4, type);
  put_u64(out.data() + 8, seq);
  put_u64(out.data() + 16, payload.size());
  put_u32(out.data() + 24, util::crc32(payload.data(), payload.size()));
  put_u32(out.data() + 28, util::crc32(out.data(), 28));
  // An empty payload's data() may be null, which memcpy must not see.
  if (!payload.empty())
    std::memcpy(out.data() + kLogFrameHeaderBytes, payload.data(),
                payload.size());
  return out;
}

LogScan scan_log(const std::uint8_t* bytes, std::size_t size,
                 std::uint64_t max_payload_bytes,
                 std::span<const std::uint32_t> types,
                 const std::function<util::Status(const LogFrame&)>& take) {
  LogScan scan;
  if (size < kLogHeaderBytes) {
    scan.tail = util::Status::data_loss(
        "log file shorter than its 16-byte header (" + std::to_string(size) +
        " bytes)");
    return scan;
  }
  if (std::memcmp(bytes, kLogMagic, sizeof kLogMagic) != 0) {
    scan.tail = util::Status::invalid("bad log file magic");
    return scan;
  }
  if (util::crc32(bytes, 12) != get_u32(bytes + 12)) {
    scan.tail = util::Status::data_loss("log file header CRC mismatch");
    return scan;
  }
  if (get_u32(bytes + 8) != kLogVersion) {
    scan.tail = util::Status::unimplemented(
        "log format version " + std::to_string(get_u32(bytes + 8)));
    return scan;
  }
  std::size_t pos = kLogHeaderBytes;
  scan.valid_bytes = pos;
  while (pos < size) {
    const std::size_t remaining = size - pos;
    if (remaining < kLogFrameHeaderBytes) {
      scan.tail = util::Status::data_loss("torn record header at offset " +
                                          std::to_string(pos));
      return scan;
    }
    const std::uint8_t* frame = bytes + pos;
    if (std::memcmp(frame, kLogFrameMagic, sizeof kLogFrameMagic) != 0) {
      scan.tail = util::Status::data_loss("bad record magic at offset " +
                                          std::to_string(pos));
      return scan;
    }
    if (util::crc32(frame, 28) != get_u32(frame + 28)) {
      scan.tail = util::Status::data_loss(
          "record header CRC mismatch at offset " + std::to_string(pos));
      return scan;
    }
    const std::uint32_t type = get_u32(frame + 4);
    if (std::find(types.begin(), types.end(), type) == types.end()) {
      scan.tail =
          util::Status::invalid("unknown record type " + std::to_string(type));
      return scan;
    }
    const std::uint64_t declared = get_u64(frame + 16);
    if (declared > max_payload_bytes) {
      scan.tail = util::Status::out_of_range(
          "declared record payload of " + std::to_string(declared) +
          " bytes exceeds cap of " + std::to_string(max_payload_bytes));
      return scan;
    }
    if (declared > remaining - kLogFrameHeaderBytes) {
      scan.tail = util::Status::data_loss(
          "torn record payload at offset " + std::to_string(pos) +
          " (declared " + std::to_string(declared) + " bytes)");
      return scan;
    }
    const std::uint8_t* payload = frame + kLogFrameHeaderBytes;
    if (util::crc32(payload, declared) != get_u32(frame + 24)) {
      scan.tail = util::Status::data_loss(
          "record payload CRC mismatch at offset " + std::to_string(pos));
      return scan;
    }
    if (util::Status taken =
            take(LogFrame{type, get_u64(frame + 8), payload,
                          static_cast<std::size_t>(declared), pos});
        !taken.is_ok()) {
      scan.tail = std::move(taken);
      return scan;
    }
    pos += kLogFrameHeaderBytes + static_cast<std::size_t>(declared);
    scan.valid_bytes = pos;
  }
  return scan;
}

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
  const util::Status status =
      write_synced(tmp_path, O_WRONLY | O_CREAT | O_TRUNC, bytes);
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

util::Status GenerationDir::append(
    std::uint64_t generation, const std::vector<std::uint8_t>& bytes) const {
  return write_synced(path_for(generation), O_WRONLY | O_APPEND, bytes);
}

util::Expected<std::vector<std::uint8_t>> GenerationDir::read(
    std::uint64_t generation) const {
  const std::string path = path_for(generation);
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::not_found("cannot open " + path);
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  if (ec)
    return util::Status::internal("cannot stat " + path + ": " +
                                  ec.message());
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (!bytes.empty() &&
      !in.read(reinterpret_cast<char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size())))
    return util::Status::internal("short read from " + path);
  return bytes;
}


LogScan scan_checkpoint_log(const std::uint8_t* bytes, std::size_t size,
                            std::uint64_t max_payload_bytes,
                            std::vector<CheckpointRecord>& records) {
  return scan_log(bytes, size, max_payload_bytes, kCheckpointTypes,
                  [&records](const LogFrame& frame) {
                    records.push_back(
                        {0, frame.offset,
                         {frame.payload, frame.payload + frame.size}});
                    return util::Status::ok();
                  });
}

CheckpointStore::CheckpointStore(CheckpointStoreOptions options)
    : options_(std::move(options)), files_{options_.dir, "ckpt-", ".pragma"} {
  if (options_.keep_last_n < 1) options_.keep_last_n = 1;
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
    // A failed append may have left a torn tail, which would hide every
    // later record from the scan: the next write starts a new generation.
    active_ = 0;
    checkpoint_write_failures_counter().add();
    span.annotate("error", status.to_string());
  }
  return status;
}

util::Status CheckpointStore::write_impl(
    const std::vector<std::uint8_t>& payload) {
  const std::vector<std::uint8_t> frame =
      encode_log_frame(kCheckpointRecordType, 0, payload);
  if (active_ == 0 || active_bytes_ + frame.size() >
                          kCheckpointGenerationMultiple * frame.size())
    return start_generation(frame);
  if (util::Status status = files_.append(active_, frame); !status.is_ok())
    return status;
  active_bytes_ += frame.size();
  return util::Status::ok();
}

util::Status CheckpointStore::start_generation(
    const std::vector<std::uint8_t>& frame) {
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec)
    return util::Status::internal("cannot create checkpoint dir " +
                                  options_.dir + ": " + ec.message());
  std::vector<std::uint64_t> existing = files_.list();
  const std::uint64_t generation = existing.empty() ? 1 : existing.back() + 1;
  std::vector<std::uint8_t> image = encode_log_header();
  image.insert(image.end(), frame.begin(), frame.end());
  if (util::Status status = files_.write_tmp(generation, image);
      !status.is_ok())
    return status;
  if (util::Status status = files_.publish(generation); !status.is_ok())
    return status;
  active_ = generation;
  active_bytes_ = image.size();

  // The new generation is the newest and the window keeps at least one.
  existing.push_back(generation);
  const auto keep = static_cast<std::size_t>(options_.keep_last_n);
  std::uint64_t removed = 0;
  for (std::size_t i = 0; i + keep < existing.size(); ++i)
    if (::unlink(files_.path_for(existing[i]).c_str()) == 0) ++removed;
  if (removed > 0) checkpoint_gc_counter().add(removed);
  return util::Status::ok();
}

std::vector<CheckpointRecord> CheckpointStore::records(
    std::size_t* torn) const {
  PRAGMA_SPAN("io", "CheckpointStore.records");
  if (torn) *torn = 0;
  std::vector<CheckpointRecord> newest_first;
  const std::vector<std::uint64_t> existing = generations();
  for (auto it = existing.rbegin(); it != existing.rend(); ++it) {
    std::vector<CheckpointRecord> found;
    const util::Expected<std::vector<std::uint8_t>> bytes = files_.read(*it);
    const LogScan scan =
        bytes ? scan_checkpoint_log(bytes.value().data(), bytes.value().size(),
                                    options_.max_payload_bytes, found)
              : LogScan{0, bytes.status()};
    if (!scan.tail.is_ok()) {
      if (torn) ++*torn;
      util::log_warn("checkpoint generation ", *it, " valid up to byte ",
                     scan.valid_bytes, ": ", scan.tail.to_string());
    }
    for (auto record = found.rbegin(); record != found.rend(); ++record) {
      record->generation = *it;
      newest_first.push_back(std::move(*record));
    }
  }
  return newest_first;
}

}  // namespace pragma::io
