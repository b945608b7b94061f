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

TEST(EnvelopeTest, RoundTrip) {
  const auto payload = payload_bytes(1000, 3);
  const auto bytes = encode_envelope(payload);
  ASSERT_EQ(bytes.size(), kCheckpointHeaderBytes + payload.size());
  const auto decoded = decode_envelope(bytes);
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  EXPECT_EQ(decoded.value(), payload);
}

TEST(EnvelopeTest, EmptyPayloadRoundTrips) {
  const auto bytes = encode_envelope({});
  const auto decoded = decode_envelope(bytes);
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  EXPECT_TRUE(decoded.value().empty());
}

TEST(EnvelopeTest, ShortFileIsDataLoss) {
  const auto bytes = encode_envelope(payload_bytes(100, 1));
  for (std::size_t cut : {std::size_t{0}, std::size_t{10},
                          kCheckpointHeaderBytes - 1,
                          kCheckpointHeaderBytes + 50}) {
    const auto decoded = decode_envelope(bytes.data(), cut);
    ASSERT_FALSE(decoded) << "cut=" << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << "cut=" << cut;
  }
}

TEST(EnvelopeTest, BadMagicRejected) {
  auto bytes = encode_envelope(payload_bytes(10, 1));
  bytes[0] ^= 0xff;
  EXPECT_FALSE(decode_envelope(bytes));
}

TEST(EnvelopeTest, HeaderBitFlipIsDataLoss) {
  // Flip the declared-payload-size field; the header CRC must catch it
  // before the size is believed.
  auto bytes = encode_envelope(payload_bytes(10, 1));
  bytes[16] ^= 0x01;
  const auto decoded = decode_envelope(bytes);
  ASSERT_FALSE(decoded);
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(EnvelopeTest, PayloadBitFlipIsDataLoss) {
  auto bytes = encode_envelope(payload_bytes(100, 1));
  bytes[kCheckpointHeaderBytes + 42] ^= 0x10;
  const auto decoded = decode_envelope(bytes);
  ASSERT_FALSE(decoded);
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(EnvelopeTest, FutureVersionIsUnimplemented) {
  auto bytes = encode_envelope(payload_bytes(10, 1));
  bytes[8] = 99;  // version field
  // Re-seal the header CRC so only the version check can fire.
  const std::uint32_t header_crc = util::crc32(bytes.data(), 28);
  for (int i = 0; i < 4; ++i)
    bytes[28 + i] = static_cast<std::uint8_t>(header_crc >> (8 * i));
  const auto decoded = decode_envelope(bytes);
  ASSERT_FALSE(decoded);
  EXPECT_EQ(decoded.status().code(), StatusCode::kUnimplemented);
}

TEST(EnvelopeTest, OversizedDeclaredPayloadRejectedBeforeAllocation) {
  auto bytes = encode_envelope(payload_bytes(64, 1));
  const auto decoded = decode_envelope(bytes.data(), bytes.size(),
                                       /*max_payload_bytes=*/32);
  ASSERT_FALSE(decoded);
  EXPECT_EQ(decoded.status().code(), StatusCode::kOutOfRange);
}

TEST_F(CheckpointStoreTest, WriteThenLoadLatest) {
  CheckpointStore store = make_store();
  ASSERT_TRUE(store.write(payload_bytes(100, 1)).is_ok());
  ASSERT_TRUE(store.write(payload_bytes(200, 2)).is_ok());
  int rejected = -1;
  const auto loaded = store.load_latest_valid(&rejected);
  ASSERT_TRUE(loaded) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().generation, 2u);
  EXPECT_EQ(loaded.value().payload, payload_bytes(200, 2));
  EXPECT_EQ(rejected, 0);
}

TEST_F(CheckpointStoreTest, EmptyStoreIsNotFound) {
  const auto loaded = make_store().load_latest_valid();
  ASSERT_FALSE(loaded);
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(CheckpointStoreTest, CorruptedNewestFallsBackToPrevious) {
  CheckpointStore store = make_store();
  ASSERT_TRUE(store.write(payload_bytes(100, 1)).is_ok());
  ASSERT_TRUE(store.write(payload_bytes(100, 2)).is_ok());
  // Bit-flip inside the newest generation's payload.
  corrupt_file(store.path_for(2), kCheckpointHeaderBytes + 10, 0x04);
  int rejected = 0;
  const auto loaded = store.load_latest_valid(&rejected);
  ASSERT_TRUE(loaded) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().generation, 1u);
  EXPECT_EQ(loaded.value().payload, payload_bytes(100, 1));
  EXPECT_EQ(rejected, 1);
}

TEST_F(CheckpointStoreTest, TornWriteTmpOrphanIsIgnored) {
  CheckpointStore store = make_store();
  ASSERT_TRUE(store.write(payload_bytes(100, 1)).is_ok());
  // Simulate a crash mid-write: a half-written tmp file for what would
  // have been generation 2.
  std::ofstream(store.path_for(2) + ".tmp") << "partial garbage";
  const auto loaded = store.load_latest_valid();
  ASSERT_TRUE(loaded) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().generation, 1u);
  EXPECT_EQ(store.next_generation(), 2u);
}

TEST_F(CheckpointStoreTest, TruncatedNewestFallsBack) {
  CheckpointStore store = make_store();
  ASSERT_TRUE(store.write(payload_bytes(400, 1)).is_ok());
  ASSERT_TRUE(store.write(payload_bytes(400, 2)).is_ok());
  // Truncate the newest file mid-payload (torn write that got renamed —
  // should be impossible with fsync, but the loader must still survive).
  fs::resize_file(store.path_for(2), kCheckpointHeaderBytes + 17);
  const auto loaded = store.load_latest_valid();
  ASSERT_TRUE(loaded) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().generation, 1u);
}

TEST_F(CheckpointStoreTest, EmptyNewestFileFallsBack) {
  CheckpointStore store = make_store();
  ASSERT_TRUE(store.write(payload_bytes(50, 1)).is_ok());
  ASSERT_TRUE(store.write(payload_bytes(50, 2)).is_ok());
  std::ofstream(store.path_for(2), std::ios::trunc).flush();
  const auto loaded = store.load_latest_valid();
  ASSERT_TRUE(loaded) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().generation, 1u);
}

TEST_F(CheckpointStoreTest, AllGenerationsCorruptIsNotFound) {
  CheckpointStore store = make_store();
  ASSERT_TRUE(store.write(payload_bytes(50, 1)).is_ok());
  ASSERT_TRUE(store.write(payload_bytes(50, 2)).is_ok());
  corrupt_file(store.path_for(1), kCheckpointHeaderBytes + 1, 0xff);
  corrupt_file(store.path_for(2), kCheckpointHeaderBytes + 1, 0xff);
  int rejected = 0;
  const auto loaded = store.load_latest_valid(&rejected);
  ASSERT_FALSE(loaded);
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(rejected, 2);
}

TEST_F(CheckpointStoreTest, PrunesOldGenerations) {
  CheckpointStore store = make_store(/*keep=*/2);
  for (int i = 1; i <= 5; ++i)
    ASSERT_TRUE(store.write(payload_bytes(10, static_cast<std::uint8_t>(i)))
                    .is_ok());
  const auto gens = store.generations();
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_EQ(gens[0], 4u);
  EXPECT_EQ(gens[1], 5u);
}

TEST_F(CheckpointStoreTest, GcNeverDeletesLatestRecoverableGeneration) {
  // Write five generations under a wide window, then corrupt the two
  // newest: the latest *recoverable* state is generation 3.
  CheckpointStoreOptions wide;
  wide.dir = dir_.string();
  wide.keep_last_n = 10;
  CheckpointStore store(wide);
  for (int i = 1; i <= 5; ++i)
    ASSERT_TRUE(store.write(payload_bytes(64, static_cast<std::uint8_t>(i)))
                    .is_ok());
  corrupt_file(store.path_for(4), kCheckpointHeaderBytes + 3, 0x01);
  corrupt_file(store.path_for(5), kCheckpointHeaderBytes + 3, 0x01);
  // GC with a keep-2 window would nominally retain only {4, 5} — but
  // generation 3 is the latest recoverable state and must survive any
  // number of passes, no matter how the window is set.
  CheckpointStoreOptions narrow = wide;
  narrow.keep_last_n = 2;
  CheckpointStore reopened(narrow);
  reopened.gc();
  reopened.gc();
  const auto loaded = reopened.load_latest_valid();
  ASSERT_TRUE(loaded) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().generation, 3u);
  EXPECT_EQ(loaded.value().payload, payload_bytes(64, 3));
}

TEST_F(CheckpointStoreTest, GcTrimsToRetentionWindow) {
  CheckpointStoreOptions options;
  options.dir = dir_.string();
  options.keep_last_n = 100;  // effectively unbounded while writing
  CheckpointStore store(options);
  for (int i = 1; i <= 6; ++i)
    ASSERT_TRUE(store.write(payload_bytes(16, static_cast<std::uint8_t>(i)))
                    .is_ok());
  ASSERT_EQ(store.generations().size(), 6u);
  CheckpointStoreOptions narrow = options;
  narrow.keep_last_n = 2;
  CheckpointStore reopened(narrow);
  EXPECT_EQ(reopened.gc(), 4);
  const auto gens = reopened.generations();
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_EQ(gens[0], 5u);
  EXPECT_EQ(gens[1], 6u);
  EXPECT_EQ(reopened.gc(), 0);  // idempotent
}

TEST_F(CheckpointStoreTest, GenerationNumberingResumesAcrossInstances) {
  {
    CheckpointStore store = make_store();
    ASSERT_TRUE(store.write(payload_bytes(10, 1)).is_ok());
    ASSERT_TRUE(store.write(payload_bytes(10, 2)).is_ok());
  }
  CheckpointStore reopened = make_store();
  EXPECT_EQ(reopened.next_generation(), 3u);
  ASSERT_TRUE(reopened.write(payload_bytes(10, 3)).is_ok());
  const auto loaded = reopened.load_latest_valid();
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded.value().generation, 3u);
}

TEST_F(CheckpointStoreTest, OversizedFileOnDiskRejected) {
  CheckpointStoreOptions options;
  options.dir = dir_.string();
  options.max_payload_bytes = 64;
  CheckpointStore small(options);
  CheckpointStore big = make_store();
  ASSERT_TRUE(big.write(payload_bytes(1000, 1)).is_ok());
  const auto loaded = small.load_latest_valid();
  ASSERT_FALSE(loaded);
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
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
