// Tests for trace serialization, the throughput harness, and the wire's
// half-duplex serialization model.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "code/trace_io.h"
#include "harness/throughput.h"
#include "net/world.h"

namespace l96 {
namespace {

TEST(TraceIo, RoundtripsAllEventKinds) {
  code::PathTrace t;
  code::Recorder rec;
  rec.enable(&t);
  rec.call(3);
  rec.block(3, 1);
  rec.load(0x8000'1234, 8);
  rec.store(0x8000'5678, 2);
  rec.marker(code::Marker::kSlowPathBegin);
  rec.marker(code::Marker::kSlowPathEnd);
  rec.ret();

  const std::string text = code::path_trace_to_string(t);
  const code::PathTrace back = code::path_trace_from_string(text);
  ASSERT_EQ(back.events.size(), t.events.size());
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    EXPECT_EQ(back.events[i].kind, t.events[i].kind) << i;
    EXPECT_EQ(back.events[i].fn, t.events[i].fn) << i;
    EXPECT_EQ(back.events[i].block, t.events[i].block) << i;
    EXPECT_EQ(back.events[i].addr, t.events[i].addr) << i;
    EXPECT_EQ(back.events[i].bytes, t.events[i].bytes) << i;
  }
}

TEST(TraceIo, CommentsAndBlankLinesIgnored) {
  const std::string text = "# header\n\nC 5\n# mid\nR\n";
  const auto t = code::path_trace_from_string(text);
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_EQ(t.events[0].kind, code::EventKind::kCall);
  EXPECT_EQ(t.events[0].fn, 5u);
}

TEST(TraceIo, MalformedInputThrows) {
  EXPECT_THROW(code::path_trace_from_string("X 1 2\n"), std::runtime_error);
  EXPECT_THROW(code::path_trace_from_string("B nonsense\n"),
               std::runtime_error);
}

/// Parse `text`, expecting failure; returns the exception message.
std::string parse_error(const std::string& text) {
  try {
    code::path_trace_from_string(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected parse to throw for: " << text;
  return "";
}

TEST(TraceIo, ErrorsNameLineNumberAndToken) {
  const std::string msg = parse_error("C 1\nR\nB 2 bogus\n");
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'bogus'"), std::string::npos) << msg;
}

TEST(TraceIo, MissingOperandThrows) {
  const std::string msg = parse_error("C\n");
  EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("missing"), std::string::npos) << msg;
  EXPECT_THROW(code::path_trace_from_string("B 3\n"), std::runtime_error);
  EXPECT_THROW(code::path_trace_from_string("L 8000\n"), std::runtime_error);
}

TEST(TraceIo, TrailingTokensThrow) {
  const std::string msg = parse_error("R extra\n");
  EXPECT_NE(msg.find("'extra'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("trailing"), std::string::npos) << msg;
  EXPECT_THROW(code::path_trace_from_string("C 1 2\n"), std::runtime_error);
}

TEST(TraceIo, GarbageAndNegativeFieldsThrow) {
  EXPECT_THROW(code::path_trace_from_string("C -1\n"), std::runtime_error);
  EXPECT_THROW(code::path_trace_from_string("C 1x\n"), std::runtime_error);
  EXPECT_THROW(code::path_trace_from_string("L zz 4\n"), std::runtime_error);
  EXPECT_THROW(code::path_trace_from_string("S 8000 -2\n"),
               std::runtime_error);
  // Byte counts are 16-bit in the event record.
  EXPECT_THROW(code::path_trace_from_string("L 8000 70000\n"),
               std::runtime_error);
}

TEST(TraceIo, TruncatedTraceDetectedViaHeaderCount) {
  // A writer header declaring more events than the body contains means the
  // file was cut off mid-transfer.
  const std::string msg =
      parse_error("# latency96 path trace, 3 events\nC 1\nR\n");
  EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
  EXPECT_NE(msg.find("declares 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("contains 2"), std::string::npos) << msg;
  // A matching count parses cleanly, including with CRLF line endings.
  const auto ok = code::path_trace_from_string(
      "# latency96 path trace, 2 events\r\nC 1\r\nR\r\n");
  EXPECT_EQ(ok.events.size(), 2u);
}

TEST(TraceIo, WriterOutputAlwaysSatisfiesReaderValidation) {
  code::PathTrace t;
  code::Recorder rec;
  rec.enable(&t);
  for (int i = 0; i < 10; ++i) {
    rec.call(static_cast<code::FnId>(i));
    rec.load(0x8000'0000 + static_cast<std::uint64_t>(i) * 64, 8);
    rec.ret();
  }
  // Dropping the last line of the writer's output must now be detected.
  std::string text = code::path_trace_to_string(t);
  EXPECT_NO_THROW(code::path_trace_from_string(text));
  text.erase(text.rfind("R\n"));
  EXPECT_THROW(code::path_trace_from_string(text), std::runtime_error);
}

TEST(TraceIo, RegistryNamesAppearAsComments) {
  code::CodeRegistry reg;
  code::Function f;
  f.name = "my_function";
  f.blocks.push_back({"b", code::BlockClass::kMainline, 4, 0, 0, 0, 0});
  reg.add(std::move(f));
  code::PathTrace t;
  const std::string text = code::path_trace_to_string(t, &reg);
  EXPECT_NE(text.find("my_function"), std::string::npos);
}

TEST(TraceIo, MachineTraceDumpHasOneLinePerInstruction) {
  sim::MachineTrace mt;
  mt.push_back({0x1000, sim::InstrClass::kIAlu, 0, false});
  mt.push_back({0x1004, sim::InstrClass::kLoad, 0x8000, false});
  mt.push_back({0x1008, sim::InstrClass::kJump, 0, true});
  std::ostringstream ss;
  code::write_machine_trace(ss, mt);
  const std::string out = ss.str();
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);  // header + 3
  EXPECT_NE(out.find("taken"), std::string::npos);
}

// --- wire serialization ------------------------------------------------------

TEST(WireSerialization, BackToBackFramesQueueOnTheMedium) {
  xk::EventManager events;
  net::Wire wire(events);
  std::vector<std::uint64_t> arrivals;
  wire.connect(1, [&](std::span<const std::uint8_t>) {
    arrivals.push_back(events.now());
  });
  wire.connect(0, [](std::span<const std::uint8_t>) {});
  // Three minimum frames sent at the same instant.
  for (int i = 0; i < 3; ++i) {
    wire.transmit(0, std::vector<std::uint8_t>(64, 0));
  }
  events.advance_by(10'000);
  ASSERT_EQ(arrivals.size(), 3u);
  // Each later frame arrives one serialization time (57.6us) after the
  // previous — not all at once.
  EXPECT_GE(arrivals[1] - arrivals[0], 57u);
  EXPECT_GE(arrivals[2] - arrivals[1], 57u);
}

TEST(WireSerialization, OneWayMatchesPaperConstant) {
  net::WireParams p;
  EXPECT_NEAR(p.one_way_us(64), 105.0, 1.0);  // the paper's measured 105us
  EXPECT_NEAR(p.frame_time_us(64), 57.6, 0.1);
}

// --- throughput harness ------------------------------------------------------

TEST(Throughput, TechniquesDoNotHurtThroughput) {
  // Section 4.1's claim, checked end to end.
  auto std_ = harness::measure_tcp_throughput(code::StackConfig::Std(),
                                              64 * 1024);
  auto all = harness::measure_tcp_throughput(code::StackConfig::All(),
                                             64 * 1024);
  EXPECT_EQ(std_.bytes, 64u * 1024u);
  EXPECT_EQ(all.bytes, 64u * 1024u);
  EXPECT_GE(all.kbytes_per_second, std_.kbytes_per_second);
}

TEST(Throughput, GoodputBelowWireRate) {
  auto r = harness::measure_tcp_throughput(code::StackConfig::All(),
                                           64 * 1024);
  EXPECT_LT(r.kbytes_per_second, 1250.0);  // 10 Mb/s ceiling
  EXPECT_GT(r.kbytes_per_second, 300.0);   // and not absurdly slow
}

TEST(Throughput, RpcLargeCallsComplete) {
  auto r = harness::measure_rpc_throughput(code::StackConfig::All(), 8,
                                           8 * 1024);
  EXPECT_EQ(r.bytes, 8u * 8u * 1024u);
  EXPECT_LT(r.kbytes_per_second, 1250.0);
}

}  // namespace
}  // namespace l96
