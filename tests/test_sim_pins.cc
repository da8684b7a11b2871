// Absolute pins for the machine model: hard-coded measure_side outputs of
// both sides of TCP/IP and RPC under the STD, BAD and ALL layouts — the
// cold, steady and critical RunResults field by field, the footprint, the
// miss-attribution totals — and one 4-position activation stream.
//
// The other sim tests compare one replay against another or check an
// inequality, so a change to the cache, write-buffer, CPU or replay code
// that moved every layout the same way would pass them all.  These values
// would not.  A deliberate model change re-records them (a failure prints
// the measured value in the initializer form used below) and names the
// model change that moved them.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <vector>

#include "harness/experiment.h"

namespace l96 {
namespace {

struct CachePin {
  std::uint64_t accesses = 0, misses = 0, repl_misses = 0, writebacks = 0;
  bool operator==(const CachePin&) const = default;
};

/// Every counter of a sim::RunResult.
struct RunPin {
  std::uint64_t instructions = 0, issue_cycles = 0, stall_cycles = 0,
                taken_branches = 0;
  CachePin icache, dcache_combined, dcache_reads, bcache;
  std::uint64_t ifetch_stall = 0, load_stall = 0, store_stall = 0;
  std::uint64_t from_ifetch = 0, from_data = 0, from_writes = 0;
  bool operator==(const RunPin&) const = default;
};

/// MissProfile::Section totals.
struct SectionPin {
  std::uint64_t misses = 0, repl_misses = 0, stall_cycles = 0,
                carryover_hits = 0;
  bool operator==(const SectionPin&) const = default;
};

/// Everything measure_side reports for one side except the derived doubles
/// (tp_us, critical_us, unused_fraction are functions of the counts).
struct SidePin {
  RunPin cold, steady, critical;
  std::uint64_t instructions = 0, critical_instructions = 0,
                static_hot_words = 0, static_total_words = 0;
  std::uint64_t blocks_fetched = 0, words_executed = 0, static_path_words = 0;
  SectionPin miss_cold_i, miss_cold_d, miss_steady_i, miss_steady_d;
  bool operator==(const SidePin&) const = default;
};

std::ostream& operator<<(std::ostream& os, const CachePin& c) {
  return os << '{' << c.accesses << ", " << c.misses << ", " << c.repl_misses
            << ", " << c.writebacks << '}';
}

std::ostream& operator<<(std::ostream& os, const RunPin& r) {
  return os << '{' << r.instructions << ", " << r.issue_cycles << ", "
            << r.stall_cycles << ", " << r.taken_branches << ", " << r.icache
            << ", " << r.dcache_combined << ", " << r.dcache_reads << ", "
            << r.bcache << ", " << r.ifetch_stall << ", " << r.load_stall
            << ", " << r.store_stall << ", " << r.from_ifetch << ", "
            << r.from_data << ", " << r.from_writes << '}';
}

std::ostream& operator<<(std::ostream& os, const SectionPin& s) {
  return os << '{' << s.misses << ", " << s.repl_misses << ", "
            << s.stall_cycles << ", " << s.carryover_hits << '}';
}

std::ostream& operator<<(std::ostream& os, const SidePin& p) {
  return os << "{\n  " << p.cold << ",\n  " << p.steady << ",\n  "
            << p.critical << ",\n  " << p.instructions << ", "
            << p.critical_instructions << ", " << p.static_hot_words << ", "
            << p.static_total_words << ", " << p.blocks_fetched << ", "
            << p.words_executed << ", " << p.static_path_words << ",\n  "
            << p.miss_cold_i << ", " << p.miss_cold_d << ", "
            << p.miss_steady_i << ", " << p.miss_steady_d << "}";
}

CachePin pin_of(const sim::CacheStats& c) {
  return {c.accesses, c.misses, c.repl_misses, c.writebacks};
}

RunPin pin_of(const sim::RunResult& r) {
  return {r.instructions,
          r.issue_cycles,
          r.stall_cycles,
          r.taken_branches,
          pin_of(r.icache),
          pin_of(r.dcache_combined),
          pin_of(r.dcache_reads),
          pin_of(r.bcache),
          r.stalls.ifetch_stall_cycles,
          r.stalls.load_stall_cycles,
          r.stalls.store_stall_cycles,
          r.traffic.from_ifetch,
          r.traffic.from_data,
          r.traffic.from_writes};
}

SectionPin pin_of(const sim::MissProfile::Section& s) {
  return {s.misses, s.repl_misses, s.stall_cycles, s.carryover_hits};
}

SidePin pin_of(const harness::SideMeasurement& m) {
  SidePin p{pin_of(m.cold),
            pin_of(m.steady),
            pin_of(m.critical),
            m.instructions,
            m.critical_instructions,
            m.static_hot_words,
            m.static_total_words,
            m.footprint.blocks_fetched,
            m.footprint.words_executed,
            m.footprint.static_path_words,
            {},
            {},
            {},
            {}};
  if (m.miss_cold) {
    p.miss_cold_i = pin_of(m.miss_cold->icache);
    p.miss_cold_d = pin_of(m.miss_cold->dcache);
  }
  if (m.miss_steady) {
    p.miss_steady_i = pin_of(m.miss_steady->icache);
    p.miss_steady_d = pin_of(m.miss_steady->dcache);
  }
  return p;
}

struct PinCase {
  const char* name;
  net::StackKind kind;
  code::StackConfig (*config)();
  SidePin client;
  SidePin server;
};

void PrintTo(const PinCase& c, std::ostream* os) { *os << c.name; }

/// Both sides of one world, measured with miss profiling on; the client is
/// measured a second time without a profiler, which must not change a
/// single RunResult counter.
void expect_pinned_world(const PinCase& c) {
  const code::StackConfig cfg = c.config();
  // RPC runs with the server pinned at ALL, as in Table 4.
  harness::Experiment e(c.kind, cfg,
                        c.kind == net::StackKind::kRpc
                            ? code::StackConfig::All()
                            : cfg);
  e.capture();
  harness::MeasureSpec cspec = e.client_spec();
  harness::MeasureSpec sspec = e.server_spec();
  cspec.profile_misses = true;
  sspec.profile_misses = true;
  const harness::SideMeasurement client = harness::measure_side(cspec);
  EXPECT_EQ(pin_of(client), c.client) << "client side";
  EXPECT_EQ(pin_of(harness::measure_side(sspec)), c.server) << "server side";

  cspec.profile_misses = false;
  const harness::SideMeasurement bare = harness::measure_side(cspec);
  EXPECT_EQ(pin_of(bare.cold), pin_of(client.cold));
  EXPECT_EQ(pin_of(bare.steady), pin_of(client.steady));
  EXPECT_EQ(pin_of(bare.critical), pin_of(client.critical));
}

class SimPins : public ::testing::TestWithParam<PinCase> {};

TEST_P(SimPins, MeasureSide) { expect_pinned_world(GetParam()); }

// clang-format off
const PinCase kCases[] = {
    {"TcpIpStd", net::StackKind::kTcpIp, &code::StackConfig::Std,
     // client
     {{4715, 4159, 20654, 94, {4715, 607, 41, 0}, {1722, 263, 17, 0},
       {1580, 221, 17, 0}, {1471, 1333, 0, 0}, 14936, 5452, 266, 1208, 221,
       42},
      {4715, 4159, 5094, 94, {4715, 607, 607, 0}, {1722, 190, 148, 0},
       {1580, 148, 148, 0}, {1398, 59, 0, 0}, 3052, 1776, 266, 1208, 148, 42},
      {3905, 3422, 4206, 66, {3905, 508, 508, 0}, {1389, 161, 127, 0},
       {1273, 127, 127, 0}, {1176, 46, 0, 0}, 2472, 1524, 210, 1015, 127, 34},
      4715, 3905, 10049, 10049, 566, 4102, 10049,
      {607, 41, 14936, 0}, {221, 17, 5452, 0},
      {607, 607, 3052, 0}, {148, 148, 1776, 0}},
     // server
     {{4715, 4159, 20671, 94, {4715, 607, 41, 0}, {1722, 264, 19, 0},
       {1580, 223, 19, 0}, {1472, 1332, 0, 0}, 14936, 5476, 259, 1208, 223,
       41},
      {4715, 4159, 5171, 94, {4715, 607, 607, 0}, {1722, 196, 155, 0},
       {1580, 155, 155, 0}, {1404, 59, 0, 0}, 3052, 1860, 259, 1208, 155, 41},
      {3905, 3422, 4211, 66, {3905, 508, 508, 0}, {1389, 161, 128, 0},
       {1273, 128, 128, 0}, {1176, 46, 0, 0}, 2472, 1536, 203, 1015, 128, 33},
      4715, 3905, 10049, 10049, 566, 4102, 10049,
      {607, 41, 14936, 0}, {223, 19, 5476, 0},
      {607, 607, 3052, 0}, {155, 155, 1860, 0}}},
    {"TcpIpBad", net::StackKind::kTcpIp, &code::StackConfig::Bad,
     // client
     {{4640, 4046, 21571, 81, {4640, 618, 90, 0}, {1663, 250, 17, 0},
       {1553, 213, 17, 0}, {1486, 1435, 162, 2}, 16068, 5272, 231, 1236,
       213, 37},
      {4640, 4046, 17839, 81, {4640, 618, 618, 0}, {1663, 180, 143, 0},
       {1553, 143, 143, 0}, {1416, 1223, 1154, 3}, 15892, 1716, 231, 1236,
       143, 37},
      {3840, 3316, 14671, 55, {3840, 507, 507, 0}, {1338, 152, 123, 0},
       {1250, 123, 123, 0}, {1166, 1001, 954, 2}, 13006, 1490, 175, 1014,
       123, 29},
      4640, 3840, 4874, 8059, 528, 4028, 4874,
      {618, 90, 16068, 0}, {213, 17, 5272, 0},
      {618, 618, 15892, 0}, {143, 143, 1716, 0}},
     // server
     {{4640, 4046, 21588, 81, {4640, 618, 90, 0}, {1663, 251, 19, 0},
       {1553, 215, 19, 0}, {1487, 1434, 162, 1}, 16068, 5296, 224, 1236,
       215, 36},
      {4640, 4046, 17940, 81, {4640, 618, 618, 0}, {1663, 188, 152, 0},
       {1553, 152, 152, 0}, {1424, 1222, 1153, 2}, 15892, 1824, 224, 1236,
       152, 36},
      {3840, 3316, 14688, 55, {3840, 507, 507, 0}, {1338, 153, 125, 0},
       {1250, 125, 125, 0}, {1167, 1000, 953, 1}, 13006, 1514, 168, 1014,
       125, 28},
      4640, 3840, 4874, 8059, 528, 4028, 4874,
      {618, 90, 16068, 0}, {215, 19, 5296, 0},
      {618, 618, 15892, 0}, {152, 152, 1824, 0}}},
    {"TcpIpAll", net::StackKind::kTcpIp, &code::StackConfig::All,
     // client
     {{4344, 3730, 17086, 48, {4344, 501, 27, 0}, {1514, 200, 3, 0},
       {1442, 174, 3, 0}, {1201, 1122, 0, 0}, 12464, 4468, 154, 1001, 174,
       26},
      {4344, 3730, 3558, 48, {4344, 501, 501, 0}, {1514, 130, 104, 0},
       {1442, 104, 104, 0}, {1131, 4, 0, 0}, 2156, 1248, 154, 1001, 104, 26},
      {3638, 3108, 3013, 37, {3638, 422, 422, 0}, {1257, 112, 93, 0},
       {1200, 93, 93, 0}, {956, 5, 0, 0}, 1792, 1116, 105, 844, 93, 19},
      4344, 3638, 4620, 7721, 474, 3763, 4620,
      {501, 27, 12464, 0}, {174, 3, 4468, 0},
      {501, 501, 2156, 0}, {104, 104, 1248, 0}},
     // server
     {{4344, 3730, 17103, 48, {4344, 501, 27, 0}, {1514, 201, 5, 0},
       {1442, 176, 5, 0}, {1202, 1121, 0, 0}, 12464, 4492, 147, 1001, 176,
       25},
      {4344, 3730, 3659, 48, {4344, 501, 501, 0}, {1514, 138, 113, 0},
       {1442, 113, 113, 0}, {1139, 4, 0, 0}, 2156, 1356, 147, 1001, 113, 25},
      {3638, 3108, 3042, 37, {3638, 422, 422, 0}, {1257, 114, 96, 0},
       {1200, 96, 96, 0}, {958, 5, 0, 0}, 1792, 1152, 98, 844, 96, 18},
      4344, 3638, 4620, 7721, 474, 3763, 4620,
      {501, 27, 12464, 0}, {176, 5, 4492, 0},
      {501, 501, 2156, 0}, {113, 113, 1356, 0}}},
    {"RpcStd", net::StackKind::kRpc, &code::StackConfig::Std,
     // client
     {{4017, 3568, 20116, 96, {4017, 526, 8, 0}, {1483, 297, 22, 0},
       {1337, 257, 22, 0}, {1345, 1268, 0, 0}, 13532, 6332, 252, 1048, 257,
       40},
      {4017, 3568, 4904, 96, {4017, 526, 526, 0}, {1483, 205, 165, 0},
       {1337, 165, 165, 0}, {1253, 52, 0, 0}, 2672, 1980, 252, 1048, 165, 40},
      {3397, 2985, 3998, 66, {3397, 431, 431, 0}, {1223, 176, 142, 0},
       {1098, 142, 142, 0}, {1038, 38, 0, 0}, 2084, 1704, 210, 862, 142, 34},
      4017, 3397, 9896, 9896, 518, 3814, 9896,
      {526, 8, 13532, 0}, {257, 22, 6332, 0},
      {526, 526, 2672, 0}, {165, 165, 1980, 0}},
     // server
     {{2282, 1983, 10608, 39, {2282, 264, 0, 0}, {793, 164, 8, 0},
       {751, 144, 8, 0}, {690, 666, 0, 0}, 6864, 3632, 112, 526, 144, 20},
      {2282, 1983, 2464, 39, {2282, 264, 264, 0}, {793, 118, 98, 0},
       {751, 98, 98, 0}, {644, 5, 0, 0}, 1176, 1176, 112, 526, 98, 20},
      {2133, 1842, 2253, 32, {2133, 246, 246, 0}, {733, 107, 92, 0},
       {697, 92, 92, 0}, {598, 4, 0, 0}, 1072, 1104, 77, 491, 92, 15},
      2282, 2133, 4566, 7613, 264, 2084, 4566,
      {264, 0, 6864, 0}, {144, 8, 3632, 0},
      {264, 264, 1176, 0}, {98, 98, 1176, 0}}},
    {"RpcBad", net::StackKind::kRpc, &code::StackConfig::Bad,
     // client
     {{3927, 3463, 19921, 84, {3927, 523, 31, 0}, {1417, 281, 17, 0},
       {1305, 244, 17, 0}, {1327, 1279, 53, 2}, 13598, 6092, 231, 1046, 244,
       37},
      {3927, 3463, 15641, 84, {3927, 523, 523, 0}, {1417, 188, 151, 0},
       {1305, 151, 151, 0}, {1234, 1049, 981, 3}, 13598, 1812, 231, 1046,
       151, 37},
      {3319, 2880, 13073, 56, {3319, 435, 435, 0}, {1167, 161, 130, 0},
       {1070, 130, 130, 0}, {1031, 872, 829, 1}, 11310, 1574, 189, 870, 130,
       31},
      3927, 3319, 4806, 7981, 492, 3732, 4806,
      {523, 31, 13598, 0}, {244, 17, 6092, 0},
      {523, 523, 13598, 0}, {151, 151, 1812, 0}},
     // server
     {{2282, 1983, 10608, 39, {2282, 264, 0, 0}, {793, 164, 8, 0},
       {751, 144, 8, 0}, {690, 666, 0, 0}, 6864, 3632, 112, 526, 144, 20},
      {2282, 1983, 2464, 39, {2282, 264, 264, 0}, {793, 118, 98, 0},
       {751, 98, 98, 0}, {644, 5, 0, 0}, 1176, 1176, 112, 526, 98, 20},
      {2133, 1842, 2253, 32, {2133, 246, 246, 0}, {733, 107, 92, 0},
       {697, 92, 92, 0}, {598, 4, 0, 0}, 1072, 1104, 77, 491, 92, 15},
      2282, 2133, 4566, 7613, 264, 2084, 4566,
      {264, 0, 6864, 0}, {144, 8, 3632, 0},
      {264, 264, 1176, 0}, {98, 98, 1176, 0}}},
    {"RpcAll", net::StackKind::kRpc, &code::StackConfig::All,
     // client
     {{3677, 3191, 16982, 53, {3677, 442, 4, 0}, {1298, 238, 8, 0},
       {1214, 212, 8, 0}, {1121, 1084, 0, 0}, 11428, 5400, 154, 883, 212, 26},
      {3677, 3191, 3498, 53, {3677, 442, 442, 0}, {1298, 144, 118, 0},
       {1214, 118, 118, 0}, {1027, 4, 0, 0}, 1928, 1416, 154, 883, 118, 26},
      {3135, 2703, 2916, 41, {3135, 371, 371, 0}, {1098, 122, 102, 0},
       {1029, 102, 102, 0}, {864, 5, 0, 0}, 1580, 1224, 112, 742, 102, 20},
      3677, 3135, 4566, 7613, 438, 3476, 4566,
      {442, 4, 11428, 0}, {212, 8, 5400, 0},
      {442, 442, 1928, 0}, {118, 118, 1416, 0}},
     // server
     {{2282, 1983, 10608, 39, {2282, 264, 0, 0}, {793, 164, 8, 0},
       {751, 144, 8, 0}, {690, 666, 0, 0}, 6864, 3632, 112, 526, 144, 20},
      {2282, 1983, 2464, 39, {2282, 264, 264, 0}, {793, 118, 98, 0},
       {751, 98, 98, 0}, {644, 5, 0, 0}, 1176, 1176, 112, 526, 98, 20},
      {2133, 1842, 2253, 32, {2133, 246, 246, 0}, {733, 107, 92, 0},
       {697, 92, 92, 0}, {598, 4, 0, 0}, 1072, 1104, 77, 491, 92, 15},
      2282, 2133, 4566, 7613, 264, 2084, 4566,
      {264, 0, 6864, 0}, {144, 8, 3632, 0},
      {264, 264, 1176, 0}, {98, 98, 1176, 0}}},
};
// clang-format on

INSTANTIATE_TEST_SUITE_P(
    Layouts, SimPins, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<PinCase>& i) { return i.param.name; });

TEST(SimStreamPins, FourPositions) {
  harness::Experiment e(net::StackKind::kTcpIp, code::StackConfig::All(),
                        code::StackConfig::All());
  e.capture();
  harness::StreamSpec spec;
  spec.base = e.client_spec();
  spec.base.profile_misses = true;
  spec.burst = 4;
  const harness::StreamMeasurement m = harness::measure_stream(spec);
  std::vector<RunPin> got;
  for (const harness::StreamPosition& p : m.positions) {
    got.push_back(pin_of(p.steady));
  }
  // clang-format off
  const std::vector<RunPin> want = {
      {4344, 3730, 3558, 48, {4344, 501, 501, 0}, {1514, 130, 104, 0},
       {1442, 104, 104, 0}, {1131, 4, 0, 0}, 2156, 1248, 154, 1001, 104, 26},
      {4344, 3730, 2298, 48, {4344, 462, 462, 0}, {1514, 44, 18, 0},
       {1442, 18, 18, 0}, {966, 2, 0, 0}, 1928, 216, 154, 922, 18, 26},
      {4344, 3730, 2298, 48, {4344, 462, 462, 0}, {1514, 44, 18, 0},
       {1442, 18, 18, 0}, {966, 2, 0, 0}, 1928, 216, 154, 922, 18, 26},
      {4344, 3730, 2298, 48, {4344, 462, 462, 0}, {1514, 44, 18, 0},
       {1442, 18, 18, 0}, {966, 2, 0, 0}, 1928, 216, 154, 922, 18, 26}};
  // clang-format on
  EXPECT_EQ(got, want);
  ASSERT_TRUE(m.miss);
  EXPECT_EQ(pin_of(m.miss->icache), (SectionPin{1887, 1887, 7940, 1794}));
  EXPECT_EQ(pin_of(m.miss->dcache), (SectionPin{158, 158, 1896, 2877}));
}

}  // namespace
}  // namespace l96
