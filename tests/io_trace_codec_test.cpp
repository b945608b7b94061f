// The adaptation trace's one persisted form: io::encode_trace and
// io::decode_trace round-trip RM3D and synthetic traces, refuse to encode
// snapshots that disagree on configuration, and decode untrusted bytes
// into a trace or a Status, rejecting hostile counts before allocating.
#include "pragma/io/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "pragma/amr/rm3d.hpp"
#include "pragma/amr/synthetic.hpp"

namespace pragma::io {
namespace {

using amr::AdaptationTrace;
using amr::Box;
using amr::GridHierarchy;
using amr::Snapshot;

AdaptationTrace sample_trace() {
  amr::SyntheticConfig config;
  config.box_count = 6;
  config.move_fraction = 0.4;
  config.seed = 99;
  amr::SyntheticAppGenerator generator(config);
  return generator.generate(5);
}

void expect_equal_traces(const AdaptationTrace& a, const AdaptationTrace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.at(i).step, b.at(i).step);
    const GridHierarchy& ha = a.at(i).hierarchy;
    const GridHierarchy& hb = b.at(i).hierarchy;
    ASSERT_EQ(ha.num_levels(), hb.num_levels());
    EXPECT_EQ(ha.base_dims(), hb.base_dims());
    EXPECT_EQ(ha.ratio(), hb.ratio());
    EXPECT_EQ(ha.max_levels(), hb.max_levels());
    for (int l = 0; l < ha.num_levels(); ++l)
      EXPECT_EQ(ha.level(l).boxes, hb.level(l).boxes)
          << "snapshot " << i << " level " << l;
  }
}

std::vector<std::uint8_t> encode(const AdaptationTrace& trace) {
  ByteWriter writer;
  encode_trace(writer, trace);
  return writer.take();
}

util::Expected<AdaptationTrace> decode(const std::vector<std::uint8_t>& b) {
  ByteReader reader(b);
  return decode_trace(reader);
}

/// encode_trace then decode_trace; the decode must succeed and consume
/// every byte, and the decoded trace must re-encode to the same bytes.
AdaptationTrace round_trip(const AdaptationTrace& original) {
  const std::vector<std::uint8_t> bytes = encode(original);
  ByteReader reader(bytes);
  util::Expected<AdaptationTrace> decoded = decode_trace(reader);
  EXPECT_TRUE(decoded) << decoded.status().to_string();
  if (!decoded) return {};
  EXPECT_TRUE(reader.at_end());
  EXPECT_EQ(encode(decoded.value()), bytes);
  return std::move(decoded).value();
}

/// Hand-written trace bytes: a snapshot count, then the shared
/// configuration, then whatever the case appends.
struct TraceBytes {
  TraceBytes(std::uint32_t count, amr::IntVec3 base, int ratio,
             int max_levels) {
    out.u32(count);
    out.i32(base.x);
    out.i32(base.y);
    out.i32(base.z);
    out.i32(ratio);
    out.i32(max_levels);
  }
  /// A snapshot header: its step and level count.
  TraceBytes& snapshot(int step, std::uint32_t num_levels) {
    out.i32(step);
    out.u32(num_levels);
    return *this;
  }
  TraceBytes& level(std::uint32_t nboxes) {
    out.u32(nboxes);
    return *this;
  }
  TraceBytes& box(amr::IntVec3 lo, amr::IntVec3 hi) {
    for (const int c : {lo.x, lo.y, lo.z, hi.x, hi.y, hi.z}) out.i32(c);
    return *this;
  }
  ByteWriter out;
};

void expect_rejected(const ByteWriter& bytes, util::StatusCode code,
                     const std::string& message) {
  const util::Expected<AdaptationTrace> trace = decode(bytes.bytes());
  ASSERT_FALSE(trace) << message;
  EXPECT_EQ(trace.status().code(), code) << trace.status().to_string();
  EXPECT_NE(trace.status().message().find(message), std::string::npos)
      << trace.status().to_string();
}

TEST(TraceIo, RoundTripsSyntheticTrace) {
  const AdaptationTrace original = sample_trace();
  expect_equal_traces(original, round_trip(original));
}

TEST(TraceIo, RoundTripsRm3dTrace) {
  amr::Rm3dConfig config;
  config.coarse_steps = 40;
  const AdaptationTrace original = amr::Rm3dEmulator(config).run();
  expect_equal_traces(original, round_trip(original));
}

TEST(TraceIo, RoundTripPreservesDerivedMetrics) {
  const AdaptationTrace original = sample_trace();
  const AdaptationTrace loaded = round_trip(original);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_DOUBLE_EQ(original.churn(i), loaded.churn(i));
    EXPECT_DOUBLE_EQ(original.scatter(i), loaded.scatter(i));
    EXPECT_DOUBLE_EQ(original.comm_comp_ratio(i),
                     loaded.comm_comp_ratio(i));
  }
}

// A checkpoint of a run that has not regridded yet carries no snapshot.
TEST(TraceIo, EmptyTraceEncodesAsCountZero) {
  EXPECT_EQ(encode(AdaptationTrace{}), (std::vector<std::uint8_t>{0, 0, 0, 0}));
  const util::Expected<AdaptationTrace> decoded =
      decode(encode(AdaptationTrace{}));
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  EXPECT_TRUE(decoded.value().empty());
}

// The configuration is stored once, so snapshots that disagree on base
// dims, ratio or max levels cannot be encoded.
TEST(TraceIo, InconsistentConfigThrows) {
  const GridHierarchy base({16, 16, 16}, 2, 3);
  for (const GridHierarchy& other :
       {GridHierarchy({32, 16, 16}, 2, 3), GridHierarchy({16, 16, 16}, 4, 3),
        GridHierarchy({16, 16, 16}, 2, 4)}) {
    AdaptationTrace mixed;
    mixed.add(Snapshot{0, base});
    mixed.add(Snapshot{4, other});
    ByteWriter writer;
    EXPECT_THROW(encode_trace(writer, mixed), std::invalid_argument);
    EXPECT_EQ(writer.size(), 0u);
  }
}

TEST(TraceIo, RejectsTruncatedInput) {
  const std::vector<std::uint8_t> bytes = encode(sample_trace());
  for (std::size_t size = 0; size < bytes.size(); ++size) {
    ByteReader reader(bytes.data(), size);
    const util::Expected<AdaptationTrace> trace = decode_trace(reader);
    ASSERT_FALSE(trace) << "cut at " << size;
    EXPECT_EQ(trace.status().code(), util::StatusCode::kInvalidArgument)
        << "cut at " << size;
  }
}

TEST(TraceIoHardened, TryLoadReturnsStatusNotThrow) {
  const std::string text = "garbage bytes";
  const std::vector<std::uint8_t> garbage(text.begin(), text.end());
  const auto trace = decode(garbage);
  ASSERT_FALSE(trace);
  EXPECT_EQ(trace.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(TraceIoHardened, HugeBoxCountRejectedBeforeAllocation) {
  // A level declaring 2^30 boxes fails at the count, before any reserve.
  TraceBytes bytes(1, {16, 8, 8}, 2, 3);
  bytes.snapshot(0, 2).level(1u << 30);
  expect_rejected(bytes.out, util::StatusCode::kInvalidArgument,
                  "element count 1073741824 exceeds cap 1048576");
}

TEST(TraceIoHardened, BoxCountPastRemainingBytesRejected) {
  // Under the per-level cap, but more boxes than the bytes left can hold.
  TraceBytes bytes(1, {16, 8, 8}, 2, 3);
  bytes.snapshot(0, 2).level(2).box({0, 0, 0}, {7, 7, 7});
  expect_rejected(bytes.out, util::StatusCode::kInvalidArgument,
                  "element count 2 overruns buffer");
}

TEST(TraceIoHardened, NegativeBoxCountRejected) {
  // -1 written as the u32 count reads as 2^32 - 1, far above the cap.
  TraceBytes bytes(1, {16, 8, 8}, 2, 3);
  bytes.snapshot(0, 2).level(static_cast<std::uint32_t>(-1));
  expect_rejected(bytes.out, util::StatusCode::kInvalidArgument,
                  "exceeds cap");
}

TEST(TraceIoHardened, NumLevelsCrossCheckedAgainstMaxLevels) {
  TraceBytes bytes(1, {16, 8, 8}, 2, 3);
  bytes.snapshot(0, 7);
  expect_rejected(bytes.out, util::StatusCode::kInvalidArgument,
                  "element count 7 exceeds cap 3");
}

TEST(TraceIoHardened, InvertedBoxExtentsRejected) {
  TraceBytes bytes(1, {16, 8, 8}, 2, 3);
  bytes.snapshot(0, 2).level(1).box({5, 5, 5}, {1, 1, 1});
  expect_rejected(bytes.out, util::StatusCode::kInvalidArgument, "hi < lo");
}

// Level 1 of an 8^3 base at ratio 2 spans [0, 16)^3.  A box past it would
// deposit outside every work grid built from the trace.
TEST(TraceIoHardened, BoxOutsideLevelDomainRejected) {
  const auto one_box = [](amr::IntVec3 lo, amr::IntVec3 hi) {
    TraceBytes bytes(1, {8, 8, 8}, 2, 2);
    bytes.snapshot(0, 2).level(1).box(lo, hi);
    return decode(bytes.out.bytes());
  };
  const auto past = one_box({12, 12, 12}, {40, 16, 16});
  ASSERT_FALSE(past);
  EXPECT_EQ(past.status().code(), util::StatusCode::kOutOfRange);
  EXPECT_NE(past.status().message().find(
                "level 1 box [12,12,12]..[40,16,16]"),
            std::string::npos)
      << past.status().to_string();
  const auto below = one_box({0, -1, 0}, {4, 4, 4});
  ASSERT_FALSE(below);
  EXPECT_EQ(below.status().code(), util::StatusCode::kOutOfRange);
  // The domain's own upper faces are inside.
  EXPECT_TRUE(one_box({12, 12, 12}, {16, 16, 16}));
}

TEST(TraceIoHardened, AbsurdConfigDimensionsRejected) {
  TraceBytes bytes(1, {2000000000, 8, 8}, 2, 3);
  bytes.snapshot(0, 1);
  expect_rejected(bytes.out, util::StatusCode::kOutOfRange, "base dims");
}

TEST(TraceIoHardened, BadRefinementRatioRejected) {
  TraceBytes bytes(1, {16, 8, 8}, 99, 3);
  bytes.snapshot(0, 1);
  expect_rejected(bytes.out, util::StatusCode::kOutOfRange,
                  "refinement ratio 99");
}

TEST(TraceIoHardened, SnapshotCountAboveCapRejected) {
  // 2^18 + 1 snapshots: above the cap, whatever bytes follow.
  TraceBytes bytes((1u << 18) + 1, {16, 8, 8}, 2, 3);
  bytes.snapshot(0, 1);
  expect_rejected(bytes.out, util::StatusCode::kInvalidArgument,
                  "element count 262145 exceeds cap 262144");
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

/// The libFuzzer seeds in fuzz/corpus/trace, written by the current
/// encoder.  valid.trace is a 2-snapshot trace on a 16x8x8 base (ratio 2,
/// max levels 3): step 0 refines level 1 with [0,0,0]..[7,7,7] and
/// [8,0,0]..[15,7,7]; step 4 refines level 1 with [0,0,0]..[15,7,7] and
/// level 2 with [0,0,0]..[7,7,7].  truncated.trace is valid.trace's first
/// 84 bytes, which end after the first snapshot.  out-of-domain-box.trace
/// is one snapshot on an 8^3 base (ratio 2, max levels 2) whose level 1
/// holds [12,12,12]..[40,16,16].  huge-box-count.trace is one snapshot on
/// valid.trace's base whose level 1 declares 2^30 boxes and holds none.
/// A codec change must regenerate them, or the fuzzer explores stale
/// bytes.
TEST(TraceCorpus, SeedsDecodeWithCurrentCodec) {
  const std::string corpus =
      std::string(PRAGMA_SOURCE_DIR) + "/fuzz/corpus/trace/";
  const std::vector<std::uint8_t> valid = read_file(corpus + "valid.trace");
  const util::Expected<AdaptationTrace> trace = decode(valid);
  ASSERT_TRUE(trace) << trace.status().to_string();
  ASSERT_EQ(trace.value().size(), 2u);
  EXPECT_EQ(trace.value().at(1).step, 4);
  EXPECT_EQ(trace.value().at(1).hierarchy.num_levels(), 3);
  EXPECT_EQ(encode(trace.value()), valid);

  struct Damaged {
    const char* name;
    util::StatusCode code;
    const char* message;
  };
  for (const Damaged& seed :
       {Damaged{"truncated.trace", util::StatusCode::kInvalidArgument,
                "truncated i32 at offset 84"},
        Damaged{"out-of-domain-box.trace", util::StatusCode::kOutOfRange,
                "level 1 box [12,12,12]..[40,16,16]"},
        Damaged{"huge-box-count.trace", util::StatusCode::kInvalidArgument,
                "element count 1073741824 exceeds cap"}}) {
    const util::Expected<AdaptationTrace> damaged =
        decode(read_file(corpus + seed.name));
    ASSERT_FALSE(damaged) << seed.name;
    EXPECT_EQ(damaged.status().code(), seed.code) << seed.name;
    EXPECT_NE(damaged.status().message().find(seed.message),
              std::string::npos)
        << seed.name << ": " << damaged.status().to_string();
  }
}

}  // namespace
}  // namespace pragma::io
