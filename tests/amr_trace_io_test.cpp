#include "pragma/amr/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "pragma/amr/rm3d.hpp"
#include "pragma/amr/synthetic.hpp"

namespace pragma::amr {
namespace {

AdaptationTrace sample_trace() {
  SyntheticConfig config;
  config.box_count = 6;
  config.move_fraction = 0.4;
  config.seed = 99;
  SyntheticAppGenerator generator(config);
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
    for (int l = 0; l < ha.num_levels(); ++l) {
      ASSERT_EQ(ha.level(l).boxes.size(), hb.level(l).boxes.size());
      for (std::size_t box = 0; box < ha.level(l).boxes.size(); ++box)
        EXPECT_EQ(ha.level(l).boxes[box], hb.level(l).boxes[box]);
    }
  }
}

util::Expected<AdaptationTrace> try_load(const std::string& text) {
  std::istringstream is(text);
  return try_load_trace(is);
}

/// save_trace then try_load_trace; the load must succeed.
AdaptationTrace round_trip(const AdaptationTrace& original) {
  std::stringstream buffer;
  save_trace(buffer, original);
  util::Expected<AdaptationTrace> loaded = try_load_trace(buffer);
  EXPECT_TRUE(loaded) << loaded.status().to_string();
  return loaded ? std::move(loaded).value() : AdaptationTrace{};
}

TEST(TraceIo, RoundTripsSyntheticTrace) {
  const AdaptationTrace original = sample_trace();
  expect_equal_traces(original, round_trip(original));
}

TEST(TraceIo, RoundTripsRm3dTrace) {
  Rm3dConfig config;
  config.coarse_steps = 40;
  const AdaptationTrace original = Rm3dEmulator(config).run();
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

TEST(TraceIo, EmptyTraceThrows) {
  std::stringstream buffer;
  EXPECT_THROW(save_trace(buffer, AdaptationTrace{}),
               std::invalid_argument);
}

TEST(TraceIo, InconsistentConfigThrows) {
  AdaptationTrace mixed;
  mixed.add(Snapshot{0, GridHierarchy({16, 16, 16}, 2, 3)});
  mixed.add(Snapshot{4, GridHierarchy({32, 16, 16}, 2, 3)});
  std::stringstream buffer;
  EXPECT_THROW(save_trace(buffer, mixed), std::invalid_argument);
}

TEST(TraceIo, RejectsBadMagic) {
  const auto trace = try_load("not-a-trace 1\n");
  ASSERT_FALSE(trace);
  EXPECT_EQ(trace.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(trace.status().message(), "load_trace: bad header");
}

TEST(TraceIo, RejectsUnsupportedVersion) {
  const auto trace = try_load("pragma-trace 99\n");
  ASSERT_FALSE(trace);
  EXPECT_EQ(trace.status().code(), util::StatusCode::kUnimplemented);
  EXPECT_EQ(trace.status().message(), "load_trace: unsupported version 99");
}

TEST(TraceIo, RejectsTruncatedInput) {
  const AdaptationTrace original = sample_trace();
  std::stringstream buffer;
  save_trace(buffer, original);
  std::string text = buffer.str();
  text.resize(text.size() * 2 / 3);
  const auto trace = try_load(text);
  ASSERT_FALSE(trace);
  EXPECT_EQ(trace.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(trace.status().message().rfind("load_trace: bad ", 0), 0u)
      << trace.status().message();
}

TEST(TraceIo, FileRoundTrip) {
  const AdaptationTrace original = sample_trace();
  const std::string path = ::testing::TempDir() + "/pragma_trace_test.txt";
  save_trace_file(path, original);
  const util::Expected<AdaptationTrace> loaded = try_load_trace_file(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded) << loaded.status().to_string();
  expect_equal_traces(original, loaded.value());
}

TEST(TraceIoHardened, TryLoadReturnsStatusNotThrow) {
  const auto trace = try_load("garbage bytes");
  ASSERT_FALSE(trace);
  EXPECT_EQ(trace.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(TraceIoHardened, UnsupportedVersionIsUnimplemented) {
  const auto trace = try_load("pragma-trace 99\n");
  ASSERT_FALSE(trace);
  EXPECT_EQ(trace.status().code(), util::StatusCode::kUnimplemented);
}

TEST(TraceIoHardened, HugeBoxCountRejectedBeforeAllocation) {
  // Declares ~10^18 boxes; the loader must refuse the count up front
  // rather than reserve a vector for it.
  const auto trace = try_load(
      "pragma-trace 1\nconfig 16 8 8 2 3\nsnapshot 0 2\n"
      "level 1 1000000000000000000\n");
  ASSERT_FALSE(trace);
  EXPECT_EQ(trace.status().code(), util::StatusCode::kOutOfRange);
}

TEST(TraceIoHardened, NegativeBoxCountRejected) {
  const auto trace = try_load(
      "pragma-trace 1\nconfig 16 8 8 2 3\nsnapshot 0 2\nlevel 1 -1\n");
  ASSERT_FALSE(trace);
  EXPECT_EQ(trace.status().code(), util::StatusCode::kOutOfRange);
}

TEST(TraceIoHardened, NumLevelsCrossCheckedAgainstMaxLevels) {
  const auto trace =
      try_load("pragma-trace 1\nconfig 16 8 8 2 3\nsnapshot 0 7\n");
  ASSERT_FALSE(trace);
  EXPECT_EQ(trace.status().code(), util::StatusCode::kOutOfRange);
  EXPECT_NE(trace.status().message().find("max_levels"), std::string::npos);
}

TEST(TraceIoHardened, InvertedBoxExtentsRejected) {
  const auto trace = try_load(
      "pragma-trace 1\nconfig 16 8 8 2 3\nsnapshot 0 2\nlevel 1 1\n"
      "box 5 5 5 1 1 1\n");
  ASSERT_FALSE(trace);
  EXPECT_NE(trace.status().message().find("hi < lo"), std::string::npos);
}

// Level 1 of an 8^3 base at ratio 2 spans [0, 16)^3.  A box past it would
// deposit outside every work grid built from the trace.
TEST(TraceIoHardened, BoxOutsideLevelDomainRejected) {
  const std::string header =
      "pragma-trace 1\nconfig 8 8 8 2 2\nsnapshot 0 2\nlevel 1 1\n";
  const auto trace = try_load(header + "box 12 12 12 40 16 16\n");
  ASSERT_FALSE(trace);
  EXPECT_EQ(trace.status().code(), util::StatusCode::kOutOfRange);
  EXPECT_NE(trace.status().message().find(
                "level 1 box [12,12,12]..[40,16,16]"),
            std::string::npos)
      << trace.status().to_string();
  const auto below = try_load(header + "box 0 -1 0 4 4 4\n");
  ASSERT_FALSE(below);
  EXPECT_EQ(below.status().code(), util::StatusCode::kOutOfRange);
  // The domain's own upper faces are inside.
  EXPECT_TRUE(try_load(header + "box 12 12 12 16 16 16\n"));
}

TEST(TraceIoHardened, AbsurdConfigDimensionsRejected) {
  const auto trace =
      try_load("pragma-trace 1\nconfig 2000000000 8 8 2 3\nsnapshot 0 1\n");
  ASSERT_FALSE(trace);
  EXPECT_EQ(trace.status().code(), util::StatusCode::kOutOfRange);
}

TEST(TraceIoHardened, BadRefinementRatioRejected) {
  const auto trace =
      try_load("pragma-trace 1\nconfig 16 8 8 99 3\nsnapshot 0 1\n");
  ASSERT_FALSE(trace);
  EXPECT_EQ(trace.status().code(), util::StatusCode::kOutOfRange);
}

TEST(TraceIoHardened, MissingFileIsNotFoundStatus) {
  const auto trace = try_load_trace_file("/nonexistent/dir/trace.txt");
  ASSERT_FALSE(trace);
  EXPECT_EQ(trace.status().code(), util::StatusCode::kNotFound);
}

}  // namespace
}  // namespace pragma::amr
