#include "pragma/io/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "pragma/util/crc32.hpp"

namespace pragma::io {
namespace {

namespace fs = std::filesystem;
using util::StatusCode;

std::vector<std::uint8_t> payload_bytes(std::size_t n, std::uint8_t base) {
  std::vector<std::uint8_t> payload(n);
  for (std::size_t i = 0; i < n; ++i)
    payload[i] = static_cast<std::uint8_t>(base + i);
  return payload;
}

class CheckpointStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("pragma_ckpt_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] CheckpointStore make_store(int keep = 3) const {
    CheckpointStoreOptions options;
    options.dir = dir_.string();
    options.keep_last_n = keep;
    return CheckpointStore(options);
  }

  void corrupt_file(const fs::path& path, std::streamoff offset,
                    std::uint8_t xor_mask) const {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file) << path;
    file.seekg(offset);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ xor_mask);
    file.seekp(offset);
    file.write(&byte, 1);
  }

  fs::path dir_;
};

/// CRC-32 by its definition: the reflected polynomial 0xEDB88320 applied
/// bit by bit, without tables.
std::uint32_t bytewise_crc32(const std::uint8_t* data, std::size_t size,
                             std::uint32_t seed = 0) {
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k)
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : (crc >> 1);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, SlicingMatchesBytewiseDefinition) {
  const std::string check = "123456789";
  EXPECT_EQ(util::crc32(check.data(), check.size()), 0xCBF43926u);

  std::vector<std::uint8_t> buffer(1024);
  std::mt19937 engine(2024);
  for (std::uint8_t& byte : buffer)
    byte = static_cast<std::uint8_t>(engine());
  // Every length through several 8-byte blocks plus a tail, at every
  // alignment of the start.
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t length = 0; length <= 300; ++length)
      ASSERT_EQ(util::crc32(buffer.data() + offset, length),
                bytewise_crc32(buffer.data() + offset, length))
          << "offset " << offset << " length " << length;
  // Chaining through `seed` at every split equals the one-shot CRC.
  const std::uint32_t whole = util::crc32(buffer.data(), buffer.size());
  EXPECT_EQ(whole, bytewise_crc32(buffer.data(), buffer.size()));
  for (std::size_t split = 0; split <= buffer.size(); ++split)
    ASSERT_EQ(util::crc32(buffer.data() + split, buffer.size() - split,
                          util::crc32(buffer.data(), split)),
              whole)
        << "split " << split;
}

/// A checkpoint log image holding `payload` as its one record.
std::vector<std::uint8_t> log_of(const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> image = encode_log_header();
  const std::vector<std::uint8_t> frame =
      encode_log_frame(kCheckpointRecordType, 0, payload);
  image.insert(image.end(), frame.begin(), frame.end());
  return image;
}

/// Where the checkpoint scan of an image stopped, and what it accepted.
struct Scanned {
  LogScan scan;
  std::vector<CheckpointRecord> records;
};

Scanned scan(const std::uint8_t* bytes, std::size_t size,
             std::uint64_t max_payload_bytes = kDefaultMaxPayloadBytes) {
  Scanned out;
  out.scan = scan_checkpoint_log(bytes, size, max_payload_bytes, out.records);
  return out;
}
Scanned scan(const std::vector<std::uint8_t>& bytes) {
  return scan(bytes.data(), bytes.size());
}

// The record frame is the payload's envelope: these check the shared log
// codec through the checkpoint store's scan.
TEST(EnvelopeTest, RoundTrip) {
  const auto payload = payload_bytes(1000, 3);
  const auto bytes = log_of(payload);
  ASSERT_EQ(bytes.size(),
            kLogHeaderBytes + kLogFrameHeaderBytes + payload.size());
  const Scanned scanned = scan(bytes);
  ASSERT_TRUE(scanned.scan.tail.is_ok()) << scanned.scan.tail.to_string();
  EXPECT_EQ(scanned.scan.valid_bytes, bytes.size());
  ASSERT_EQ(scanned.records.size(), 1u);
  EXPECT_EQ(scanned.records[0].offset, kLogHeaderBytes);
  EXPECT_EQ(scanned.records[0].payload, payload);
}

TEST(EnvelopeTest, EmptyPayloadRoundTrips) {
  const Scanned scanned = scan(log_of({}));
  ASSERT_TRUE(scanned.scan.tail.is_ok()) << scanned.scan.tail.to_string();
  ASSERT_EQ(scanned.records.size(), 1u);
  EXPECT_TRUE(scanned.records[0].payload.empty());
}

TEST(EnvelopeTest, ShortFileIsDataLoss) {
  const auto bytes = log_of(payload_bytes(100, 1));
  for (std::size_t cut : {std::size_t{0}, std::size_t{10},
                          kLogHeaderBytes + kLogFrameHeaderBytes - 1,
                          kLogHeaderBytes + kLogFrameHeaderBytes + 50}) {
    const Scanned scanned = scan(bytes.data(), cut);
    EXPECT_TRUE(scanned.records.empty()) << "cut=" << cut;
    EXPECT_EQ(scanned.scan.tail.code(), StatusCode::kDataLoss)
        << "cut=" << cut;
  }
}

TEST(EnvelopeTest, BadMagicRejected) {
  auto bytes = log_of(payload_bytes(10, 1));
  bytes[0] ^= 0xff;
  const Scanned scanned = scan(bytes);
  EXPECT_TRUE(scanned.records.empty());
  EXPECT_FALSE(scanned.scan.tail.is_ok());
}

TEST(EnvelopeTest, HeaderBitFlipIsDataLoss) {
  // Flip the declared-payload-size field; the header CRC must catch it
  // before the size is believed.
  auto bytes = log_of(payload_bytes(10, 1));
  bytes[kLogHeaderBytes + 16] ^= 0x01;
  const Scanned scanned = scan(bytes);
  EXPECT_TRUE(scanned.records.empty());
  EXPECT_EQ(scanned.scan.tail.code(), StatusCode::kDataLoss);
}

TEST(EnvelopeTest, PayloadBitFlipIsDataLoss) {
  auto bytes = log_of(payload_bytes(100, 1));
  bytes[kLogHeaderBytes + kLogFrameHeaderBytes + 42] ^= 0x10;
  const Scanned scanned = scan(bytes);
  EXPECT_TRUE(scanned.records.empty());
  EXPECT_EQ(scanned.scan.tail.code(), StatusCode::kDataLoss);
}

TEST(EnvelopeTest, FutureVersionIsUnimplemented) {
  auto bytes = log_of(payload_bytes(10, 1));
  bytes[8] = 99;  // version field
  // Re-seal the header CRC so only the version check can fire.
  const std::uint32_t header_crc = util::crc32(bytes.data(), 12);
  for (int i = 0; i < 4; ++i)
    bytes[12 + i] = static_cast<std::uint8_t>(header_crc >> (8 * i));
  const Scanned scanned = scan(bytes);
  EXPECT_TRUE(scanned.records.empty());
  EXPECT_EQ(scanned.scan.tail.code(), StatusCode::kUnimplemented);
}

TEST(EnvelopeTest, OversizedDeclaredPayloadRejectedBeforeAllocation) {
  const auto bytes = log_of(payload_bytes(64, 1));
  const Scanned scanned =
      scan(bytes.data(), bytes.size(), /*max_payload_bytes=*/32);
  EXPECT_TRUE(scanned.records.empty());
  EXPECT_EQ(scanned.scan.tail.code(), StatusCode::kOutOfRange);
}

TEST(EnvelopeTest, JournalRecordTypesAreRejected) {
  std::vector<std::uint8_t> bytes = encode_log_header();
  const std::vector<std::uint8_t> frame =
      encode_log_frame(/*pending=*/1, 1, payload_bytes(10, 1));
  bytes.insert(bytes.end(), frame.begin(), frame.end());
  const Scanned scanned = scan(bytes);
  EXPECT_TRUE(scanned.records.empty());
  EXPECT_EQ(scanned.scan.tail.code(), StatusCode::kInvalidArgument);
}

TEST_F(CheckpointStoreTest, WriteThenLoadLatest) {
  CheckpointStore store = make_store();
  ASSERT_TRUE(store.write(payload_bytes(100, 1)).is_ok());
  ASSERT_TRUE(store.write(payload_bytes(200, 2)).is_ok());
  std::size_t torn = 1;
  const auto records = store.records(&torn);
  ASSERT_EQ(records.size(), 2u);
  // Both records are in one generation, newest first.
  EXPECT_EQ(records[0].generation, 1u);
  EXPECT_EQ(records[0].payload, payload_bytes(200, 2));
  EXPECT_EQ(records[0].offset,
            kLogHeaderBytes + kLogFrameHeaderBytes + 100);
  EXPECT_EQ(records[1].payload, payload_bytes(100, 1));
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(store.generations(), (std::vector<std::uint64_t>{1}));
}

TEST_F(CheckpointStoreTest, EmptyStoreIsNotFound) {
  EXPECT_TRUE(make_store().records().empty());
}

TEST_F(CheckpointStoreTest, CorruptedNewestFallsBackToPrevious) {
  CheckpointStore store = make_store();
  ASSERT_TRUE(store.write(payload_bytes(100, 1)).is_ok());
  ASSERT_TRUE(store.write(payload_bytes(100, 2)).is_ok());
  // Bit-flip inside the newest record's payload.
  const CheckpointRecord newest = store.records().front();
  corrupt_file(store.path_for(newest.generation),
               static_cast<std::streamoff>(newest.offset +
                                           kLogFrameHeaderBytes + 10),
               0x04);
  std::size_t torn = 0;
  const auto records = store.records(&torn);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, payload_bytes(100, 1));
  EXPECT_EQ(torn, 1u);
}

TEST_F(CheckpointStoreTest, TornPartialFrameFallsBackToPreviousRecord) {
  CheckpointStore store = make_store();
  ASSERT_TRUE(store.write(payload_bytes(100, 1)).is_ok());
  ASSERT_TRUE(store.write(payload_bytes(100, 2)).is_ok());
  // A crash mid-append: half of a third record's frame hit the disk.
  const std::vector<std::uint8_t> frame =
      encode_log_frame(kCheckpointRecordType, 0, payload_bytes(100, 3));
  {
    std::ofstream out(store.path_for(1), std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size() / 2));
  }
  std::size_t torn = 0;
  const auto records = store.records(&torn);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].payload, payload_bytes(100, 2));
  EXPECT_EQ(torn, 1u);
}

TEST_F(CheckpointStoreTest, TornWriteTmpOrphanIsIgnored) {
  ASSERT_TRUE(make_store().write(payload_bytes(100, 1)).is_ok());
  // Simulate a crash mid-publish: a half-written tmp file for what would
  // have been generation 2.
  CheckpointStore store = make_store();
  std::ofstream(store.path_for(2) + ".tmp") << "partial garbage";
  const auto records = store.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].generation, 1u);
  // The next generation is 2 all the same; its publish replaces the tmp.
  ASSERT_TRUE(store.write(payload_bytes(100, 2)).is_ok());
  EXPECT_EQ(store.generations(), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_FALSE(fs::exists(store.path_for(2) + ".tmp"));
}

TEST_F(CheckpointStoreTest, TruncatedNewestFallsBack) {
  CheckpointStore store = make_store();
  ASSERT_TRUE(store.write(payload_bytes(400, 1)).is_ok());
  ASSERT_TRUE(store.write(payload_bytes(400, 2)).is_ok());
  // Truncate the file inside the newest record's payload.
  const CheckpointRecord newest = store.records().front();
  fs::resize_file(store.path_for(1),
                  newest.offset + kLogFrameHeaderBytes + 17);
  const auto records = store.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, payload_bytes(400, 1));
}

TEST_F(CheckpointStoreTest, EmptyNewestFileFallsBack) {
  // Each store starts its own generation.
  ASSERT_TRUE(make_store().write(payload_bytes(50, 1)).is_ok());
  CheckpointStore store = make_store();
  ASSERT_TRUE(store.write(payload_bytes(50, 2)).is_ok());
  std::ofstream(store.path_for(2), std::ios::trunc).flush();
  const auto records = store.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].generation, 1u);
}

TEST_F(CheckpointStoreTest, AllGenerationsCorruptIsNotFound) {
  ASSERT_TRUE(make_store().write(payload_bytes(50, 1)).is_ok());
  CheckpointStore store = make_store();
  ASSERT_TRUE(store.write(payload_bytes(50, 2)).is_ok());
  const auto payload_at =
      static_cast<std::streamoff>(kLogHeaderBytes + kLogFrameHeaderBytes + 1);
  corrupt_file(store.path_for(1), payload_at, 0xff);
  corrupt_file(store.path_for(2), payload_at, 0xff);
  std::size_t torn = 0;
  EXPECT_TRUE(store.records(&torn).empty());
  EXPECT_EQ(torn, 2u);
}

TEST_F(CheckpointStoreTest, PrunesOldGenerations) {
  for (int i = 1; i <= 5; ++i)
    ASSERT_TRUE(make_store(/*keep=*/2)
                    .write(payload_bytes(10, static_cast<std::uint8_t>(i)))
                    .is_ok());
  const auto gens = make_store(2).generations();
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_EQ(gens[0], 4u);
  EXPECT_EQ(gens[1], 5u);
}

TEST_F(CheckpointStoreTest, GenerationRollsOverAtConstantMultiple) {
  CheckpointStore store = make_store(/*keep=*/10);
  const std::size_t frame = kLogFrameHeaderBytes + 100;
  // A generation takes records while it stays within the multiple of the
  // appended record's size: with equal records, as many as fit after the
  // header.
  const std::size_t per_generation =
      (kCheckpointGenerationMultiple * frame - kLogHeaderBytes) / frame;
  ASSERT_GE(per_generation, 2u);
  for (std::size_t i = 0; i <= per_generation; ++i)
    ASSERT_TRUE(
        store.write(payload_bytes(100, static_cast<std::uint8_t>(i))).is_ok());
  EXPECT_EQ(store.generations(), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(fs::file_size(store.path_for(1)),
            kLogHeaderBytes + per_generation * frame);
  EXPECT_GT(kLogHeaderBytes + (per_generation + 1) * frame,
            kCheckpointGenerationMultiple * frame);
  const auto records = store.records();
  ASSERT_EQ(records.size(), per_generation + 1);
  EXPECT_EQ(records[0].generation, 2u);
  EXPECT_EQ(records[0].offset, kLogHeaderBytes);
  EXPECT_EQ(records[1].generation, 1u);
}

TEST_F(CheckpointStoreTest, WriteAfterFailedAppendStartsNewGeneration) {
  CheckpointStore store = make_store();
  ASSERT_TRUE(store.write(payload_bytes(100, 1)).is_ok());
  // The active generation vanishes, so the next append fails.
  fs::rename(store.path_for(1), store.path_for(5));
  EXPECT_FALSE(store.write(payload_bytes(100, 2)).is_ok());
  // The write after it starts a new generation instead of appending.
  ASSERT_TRUE(store.write(payload_bytes(100, 3)).is_ok());
  EXPECT_EQ(store.generations(), (std::vector<std::uint64_t>{5, 6}));
  const auto records = store.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].generation, 6u);
  EXPECT_EQ(records[0].offset, kLogHeaderBytes);
  EXPECT_EQ(records[0].payload, payload_bytes(100, 3));
}

TEST_F(CheckpointStoreTest, FirstWriteStartsNewGenerationAfterIntactOne) {
  ASSERT_TRUE(make_store().write(payload_bytes(10, 1)).is_ok());
  // A second store never appends after another writer's tail.
  CheckpointStore store = make_store();
  ASSERT_TRUE(store.write(payload_bytes(10, 2)).is_ok());
  ASSERT_TRUE(store.write(payload_bytes(10, 3)).is_ok());
  EXPECT_EQ(store.generations(), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(fs::file_size(store.path_for(1)),
            kLogHeaderBytes + kLogFrameHeaderBytes + 10);
  EXPECT_EQ(store.records().size(), 3u);
}

TEST_F(CheckpointStoreTest, GenerationNumberingResumesAcrossInstances) {
  ASSERT_TRUE(make_store().write(payload_bytes(10, 1)).is_ok());
  ASSERT_TRUE(make_store().write(payload_bytes(10, 2)).is_ok());
  CheckpointStore reopened = make_store();
  ASSERT_TRUE(reopened.write(payload_bytes(10, 3)).is_ok());
  const auto records = reopened.records();
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records[0].generation, 3u);
  EXPECT_EQ(records[0].payload, payload_bytes(10, 3));
}

TEST_F(CheckpointStoreTest, OversizedFileOnDiskRejected) {
  CheckpointStoreOptions options;
  options.dir = dir_.string();
  options.max_payload_bytes = 64;
  CheckpointStore small(options);
  CheckpointStore big = make_store();
  ASSERT_TRUE(big.write(payload_bytes(1000, 1)).is_ok());
  std::size_t torn = 0;
  EXPECT_TRUE(small.records(&torn).empty());
  EXPECT_EQ(torn, 1u);
}

TEST_F(CheckpointStoreTest, UnwritableDirectoryIsInternalError) {
  CheckpointStoreOptions options;
  options.dir = "/proc/definitely/not/writable";
  CheckpointStore store(options);
  const util::Status status = store.write(payload_bytes(10, 1));
  EXPECT_FALSE(status.is_ok());
}

}  // namespace
}  // namespace pragma::io
