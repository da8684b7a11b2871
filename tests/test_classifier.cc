// Tests for the packet classifier and the wire-format helpers.
#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "code/classifier.h"
#include "harness/classify.h"
#include "protocols/rulegen.h"
#include "protocols/wire_format.h"

namespace l96 {
namespace {

using code::ClassifierRule;
using code::PacketClassifier;

std::vector<std::uint8_t> frame(std::initializer_list<int> xs) {
  std::vector<std::uint8_t> v;
  for (int x : xs) v.push_back(static_cast<std::uint8_t>(x));
  return v;
}

TEST(Classifier, MatchesSingleRule) {
  PacketClassifier c;
  c.add_path("ip", 1, {{.offset = 0, .size = 1, .mask = 0xFF, .value = 0x45}});
  EXPECT_EQ(c.classify(frame({0x45, 0x00})), 1);
  EXPECT_EQ(c.classify(frame({0x46, 0x00})), std::nullopt);
}

TEST(Classifier, MultiByteBigEndian) {
  PacketClassifier c;
  c.add_path("tcp80", 2,
             {{.offset = 2, .size = 2, .mask = 0xFFFF, .value = 0x0050}});
  EXPECT_EQ(c.classify(frame({0, 0, 0x00, 0x50})), 2);
  EXPECT_EQ(c.classify(frame({0, 0, 0x50, 0x00})), std::nullopt);
}

TEST(Classifier, MaskedMatch) {
  PacketClassifier c;
  c.add_path("highnibble", 3,
             {{.offset = 0, .size = 1, .mask = 0xF0, .value = 0x40}});
  EXPECT_EQ(c.classify(frame({0x4F})), 3);
  EXPECT_EQ(c.classify(frame({0x5F})), std::nullopt);
}

TEST(Classifier, AllRulesMustMatch) {
  PacketClassifier c;
  c.add_path("both", 4,
             {{.offset = 0, .size = 1, .mask = 0xFF, .value = 1},
              {.offset = 1, .size = 1, .mask = 0xFF, .value = 2}});
  EXPECT_EQ(c.classify(frame({1, 2})), 4);
  EXPECT_EQ(c.classify(frame({1, 3})), std::nullopt);
}

TEST(Classifier, FirstRegisteredWins) {
  PacketClassifier c;
  c.add_path("specific", 1,
             {{.offset = 0, .size = 1, .mask = 0xFF, .value = 7}});
  c.add_path("general", 2, {});
  EXPECT_EQ(c.classify(frame({7})), 1);
  EXPECT_EQ(c.classify(frame({9})), 2);  // catch-all
}

TEST(Classifier, ShortFrameNeverMatchesOutOfRangeRule) {
  PacketClassifier c;
  c.add_path("deep", 1,
             {{.offset = 100, .size = 2, .mask = 0xFFFF, .value = 0}});
  EXPECT_EQ(c.classify(frame({1, 2, 3})), std::nullopt);
}

TEST(Classifier, Metadata) {
  PacketClassifier c;
  c.add_path("x", 9, {});
  ASSERT_NE(c.path_name(9), nullptr);
  EXPECT_EQ(*c.path_name(9), "x");
  EXPECT_EQ(c.path_name(1), nullptr);
  EXPECT_EQ(c.num_paths(), 1u);
}

TEST(Classifier, RejectsRuleSizesOutsideAccumulatorWidth) {
  // The matcher folds `size` big-endian bytes into a 32-bit accumulator;
  // anything outside {1, 2, 4} would overflow or read torn values, so
  // add_path must reject it up front.
  PacketClassifier c;
  EXPECT_THROW(c.add_path("zero", 1,
                          {{.offset = 0, .size = 0, .mask = 0xFF, .value = 0}}),
               std::invalid_argument);
  EXPECT_THROW(c.add_path("three", 2,
                          {{.offset = 0, .size = 3, .mask = 0xFF, .value = 0}}),
               std::invalid_argument);
  EXPECT_THROW(c.add_path("eight", 3,
                          {{.offset = 0, .size = 8, .mask = 0xFF, .value = 0}}),
               std::invalid_argument);
  EXPECT_EQ(c.num_paths(), 0u);  // nothing was registered
  for (std::uint8_t ok : {1, 2, 4}) {
    PacketClassifier good;
    EXPECT_NO_THROW(good.add_path(
        "ok", ok, {{.offset = 0, .size = ok, .mask = 0xFF, .value = 0}}));
  }
}

TEST(Classifier, RejectsDuplicatePathIds) {
  PacketClassifier c;
  c.add_path("first", 7, {{.offset = 0, .size = 1, .mask = 0xFF, .value = 1}});
  EXPECT_THROW(
      c.add_path("second", 7,
                 {{.offset = 0, .size = 1, .mask = 0xFF, .value = 2}}),
      std::invalid_argument);
  EXPECT_EQ(c.num_paths(), 1u);
  ASSERT_NE(c.path_name(7), nullptr);
  EXPECT_EQ(*c.path_name(7), "first");  // original registration intact
}

TEST(Classifier, ClassifyScanCountsRulesExamined) {
  PacketClassifier c;
  c.add_path("a", 1,
             {{.offset = 0, .size = 1, .mask = 0xFF, .value = 1},
              {.offset = 1, .size = 1, .mask = 0xFF, .value = 2}});
  c.add_path("b", 2, {{.offset = 0, .size = 1, .mask = 0xFF, .value = 9}});

  // Match on the first path: both of its rules were evaluated.
  auto scan = c.classify_scan(frame({1, 2}));
  EXPECT_EQ(scan.path_id, 1);
  EXPECT_EQ(scan.rules_examined, 2u);

  // First path fails on rule 1 (short-circuit), second matches its rule.
  scan = c.classify_scan(frame({9, 9}));
  EXPECT_EQ(scan.path_id, 2);
  EXPECT_EQ(scan.rules_examined, 2u);

  // No match: every path's scan was attempted.
  scan = c.classify_scan(frame({5, 5}));
  EXPECT_EQ(scan.path_id, std::nullopt);
  EXPECT_EQ(scan.rules_examined, 2u);  // path a stops at rule 1, then path b
}

// --- tuple-space engine -----------------------------------------------------

TEST(ClassifierTuple, AutoPolicySelectsByScaleAndShape) {
  // Small sets stay linear even though a tuple index exists.
  PacketClassifier small;
  small.add_path("a", 1, {{.offset = 0, .size = 1, .mask = 0xFF, .value = 1}});
  EXPECT_FALSE(small.tuple_active());
  small.set_engine(PacketClassifier::Engine::kTuple);
  EXPECT_TRUE(small.tuple_active());
  small.set_engine(PacketClassifier::Engine::kLinear);
  EXPECT_FALSE(small.tuple_active());

  // A large set sharing one signature goes tuple under kAuto...
  PacketClassifier shared;
  for (int i = 0; i < 32; ++i) {
    shared.add_path("p" + std::to_string(i), i,
                    {{.offset = 0, .size = 1, .mask = 0xFF,
                      .value = static_cast<std::uint32_t>(i)}});
  }
  EXPECT_EQ(shared.num_tuples(), 1u);
  EXPECT_TRUE(shared.tuple_active());

  // ...but a degenerate set (every path its own signature) stays linear:
  // probing one single-entry table per path IS a linear scan, with extra
  // hashing on top.
  PacketClassifier degen;
  for (int i = 0; i < 32; ++i) {
    degen.add_path("p" + std::to_string(i), i,
                   {{.offset = static_cast<std::uint16_t>(i), .size = 1,
                     .mask = 0xFF, .value = 7}});
  }
  EXPECT_EQ(degen.num_tuples(), 32u);
  EXPECT_FALSE(degen.tuple_active());
}

TEST(ClassifierTuple, ReproducesLinearDecisionAndPriority) {
  // Overlapping masks across two signatures; the earliest registered match
  // must win under both engines, including when a later path also fully
  // matches (shadowed priority).
  PacketClassifier c;
  c.add_path("exact", 1,
             {{.offset = 0, .size = 1, .mask = 0xFF, .value = 0x42}});
  c.add_path("highnibble", 2,
             {{.offset = 0, .size = 1, .mask = 0xF0, .value = 0x40}});
  c.add_path("other", 3,
             {{.offset = 1, .size = 1, .mask = 0xFF, .value = 0x01}});

  const auto frames = {frame({0x42, 0x01}), frame({0x41, 0x01}),
                       frame({0x99, 0x01}), frame({0x99, 0x02}),
                       frame({0x42})};
  for (const auto& f : frames) {
    const auto lin = c.classify_scan_linear(f);
    const auto tup = c.classify_scan_tuple(f);
    EXPECT_EQ(lin.path_id, tup.path_id);
    EXPECT_TRUE(tup.tuple_engine);
    EXPECT_FALSE(lin.tuple_engine);
  }
  EXPECT_EQ(c.classify_scan_tuple(frame({0x42, 0x01})).path_id, 1);
  EXPECT_EQ(c.classify_scan_tuple(frame({0x41, 0x01})).path_id, 2);
}

TEST(ClassifierTuple, ProbeLogDescribesTheScan) {
  const code::PacketClassifier c = proto::build_scaled_classifier(
      proto::RuleSetKind::kTcpIp, 64, /*seed=*/1);
  ASSERT_TRUE(c.tuple_active());
  const auto f = harness::classifier_match_frame(net::StackKind::kTcpIp);
  code::ClassifyProbeLog log;
  const auto scan = c.classify_scan(f, &log);
  EXPECT_EQ(scan.path_id, proto::real_path_id(proto::RuleSetKind::kTcpIp));
  EXPECT_EQ(log.probes.size(), scan.tuples_probed);
  std::size_t candidates = 0, rules = 0, matched = 0;
  for (const auto& p : log.probes) {
    candidates += p.candidates;
    rules += p.rules;
    matched += p.matched ? 1 : 0;
  }
  EXPECT_EQ(candidates, scan.candidates_verified);
  EXPECT_EQ(rules, scan.rules_examined);
  EXPECT_EQ(matched, 1u);
}

TEST(ClassifierTuple, ScaledRuleSetKeepsTupleCountFlat) {
  // Thousands of generated paths share the template families, so the
  // tuple-space probe count stays O(#families) while the linear scan's
  // work grows with the path count.
  const code::PacketClassifier c = proto::build_scaled_classifier(
      proto::RuleSetKind::kTcpIp, 2048, /*seed=*/1);
  EXPECT_EQ(c.num_paths(), 2049u);
  EXPECT_LE(c.num_tuples(), 4u);
  ASSERT_TRUE(c.tuple_active());
  const auto f = harness::classifier_match_frame(net::StackKind::kTcpIp);
  const auto tup = c.classify_scan_tuple(f);
  const auto lin = c.classify_scan_linear(f);
  EXPECT_EQ(tup.path_id, lin.path_id);
  EXPECT_LE(tup.tuples_probed, c.num_tuples());
  EXPECT_LT(tup.rules_examined, lin.rules_examined / 100);
}

TEST(ClassifierScale, TenThousandPathRegistrationStaysLinear) {
  // Registering N paths must be O(total rules): the duplicate-id check is
  // an O(1) map lookup, not a scan of every prior path.  A quadratic
  // regression at 10k paths would blow far past this (generous) budget.
  const auto t0 = std::chrono::steady_clock::now();
  const code::PacketClassifier c = proto::build_scaled_classifier(
      proto::RuleSetKind::kTcpIp, 10'000, /*seed=*/7);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(c.num_paths(), 10'001u);
  EXPECT_LT(secs, 2.0);

  // path_name is an O(1) lookup at any scale, and duplicate ids still
  // throw with the original registration intact.
  const std::string* name = c.path_name(proto::kDecoyPathIdBase + 9'999);
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(*name, "decoy_9999");
  ASSERT_NE(c.path_name(1), nullptr);
  EXPECT_EQ(*c.path_name(1), "tcpip_in");
  code::PacketClassifier mut = c;
  EXPECT_THROW(mut.add_path("dup", proto::kDecoyPathIdBase, {}),
               std::invalid_argument);
  EXPECT_EQ(mut.num_paths(), 10'001u);

  // The classification itself still lands on the real fast path.
  EXPECT_EQ(c.classify(harness::classifier_match_frame(net::StackKind::kTcpIp)),
            1);
  EXPECT_EQ(c.classify(harness::classifier_nomatch_frame()), std::nullopt);
}

// --- wire format -----------------------------------------------------------

TEST(WireFormat, BigEndianRoundtrip) {
  std::vector<std::uint8_t> buf(8);
  proto::put_be16(buf, 0, 0xBEEF);
  proto::put_be32(buf, 2, 0xDEADC0DE);
  EXPECT_EQ(proto::get_be16(buf, 0), 0xBEEF);
  EXPECT_EQ(proto::get_be32(buf, 2), 0xDEADC0DEu);
  EXPECT_EQ(buf[0], 0xBE);
  EXPECT_EQ(buf[1], 0xEF);
}

TEST(WireFormat, ChecksumKnownVector) {
  // RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2, cksum ~0xddf2.
  auto data = frame({0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7});
  EXPECT_EQ(proto::inet_checksum(data), static_cast<std::uint16_t>(~0xddf2));
}

TEST(WireFormat, ChecksumOfDataWithItsChecksumIsZero) {
  auto data = frame({1, 2, 3, 4, 5, 6});
  const std::uint16_t ck = proto::inet_checksum(data);
  data.push_back(static_cast<std::uint8_t>(ck >> 8));
  data.push_back(static_cast<std::uint8_t>(ck));
  EXPECT_EQ(proto::inet_checksum(data), 0);
}

TEST(WireFormat, ChecksumDetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(40);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 37);
  }
  const std::uint16_t ck = proto::inet_checksum(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      data[i] ^= (1u << bit);
      EXPECT_NE(proto::inet_checksum(data), ck);
      data[i] ^= (1u << bit);
    }
  }
}

TEST(WireFormat, ChecksumOddLength) {
  auto data = frame({0xAB});
  // Odd byte is padded with zero on the right: sum = 0xab00.
  EXPECT_EQ(proto::inet_checksum(data), static_cast<std::uint16_t>(~0xab00));
}

TEST(WireFormat, AccumulatePartial) {
  auto a = frame({0x12, 0x34});
  auto b = frame({0x56, 0x78});
  const std::uint32_t partial = proto::checksum_accumulate(a);
  const std::uint16_t split = proto::inet_checksum(b, partial);
  auto whole = frame({0x12, 0x34, 0x56, 0x78});
  EXPECT_EQ(split, proto::inet_checksum(whole));
}

}  // namespace
}  // namespace l96
