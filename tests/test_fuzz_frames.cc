// Fuzz-style negative tests for inbound frame parsing: single-byte
// corruption swept across every header offset (both stacks, end-to-end
// integrity on), truncated and oversized frames straight into the driver,
// and crafted BLAST headers whose checksums are valid but whose fields
// lie — each must be rejected by a bounds check, never by a crash.
#include <gtest/gtest.h>

#include <vector>

#include "harness/soak.h"
#include "net/world.h"
#include "protocols/wire_format.h"

namespace l96 {
namespace {

// --- corruption offset sweep ------------------------------------------------

harness::SoakSpec sweep_spec(net::StackKind kind, std::uint32_t offset) {
  harness::SoakSpec s;
  s.kind = kind;
  s.roundtrips = 12;
  s.msg_bytes = 32;
  s.plan.seed = 100 + offset;
  // Three mid-run frames per direction corrupted at the same byte offset;
  // frames 0-5 are left alone so connection setup completes.
  for (int p = 0; p < 2; ++p) {
    for (std::uint64_t ix : {6, 9, 12}) {
      s.plan.scheduled[p].push_back(
          {.frame_ix = ix, .kind = net::FaultKind::kCorrupt, .arg = offset,
           .has_arg = true});
    }
  }
  return s;
}

TEST(FuzzFrames, TcpCorruptionSweptAcrossHeaderOffsets) {
  // Offsets 0-63 cover the eth (0-13), IP (14-33), and TCP (34-53) headers
  // plus the start of the payload.  Whatever byte is hit, the stacks must
  // detect it (address check, IP checksum, TCP checksum), recover by
  // retransmission, and deliver every payload byte intact.
  for (std::uint32_t off = 0; off < 64; ++off) {
    const auto r = harness::run_soak(sweep_spec(net::StackKind::kTcpIp, off));
    EXPECT_TRUE(r.ok()) << "offset " << off << ": " << r.summary();
    EXPECT_EQ(r.integrity_failures, 0u) << "offset " << off;
  }
}

TEST(FuzzFrames, RpcCorruptionSweptAcrossHeaderOffsets) {
  // Offsets 0-63 cover eth (0-13), BLAST (14-29), BID (30-33), CHAN
  // (34-41) and the argument bytes.  The BLAST checksum covers everything
  // past eth, so every hit is either an address reject or a checksum
  // reject; CHAN retries carry the call through.
  for (std::uint32_t off = 0; off < 64; ++off) {
    const auto r = harness::run_soak(sweep_spec(net::StackKind::kRpc, off));
    EXPECT_TRUE(r.ok()) << "offset " << off << ": " << r.summary();
    EXPECT_EQ(r.integrity_failures, 0u) << "offset " << off;
  }
}

// --- truncated / oversized frames -------------------------------------------

std::vector<std::uint8_t> eth_frame(const proto::MacAddr& dst,
                                    const proto::MacAddr& src,
                                    std::uint16_t ethertype,
                                    std::size_t total_len) {
  std::vector<std::uint8_t> f(std::max<std::size_t>(total_len, 14), 0xC3);
  std::copy(dst.begin(), dst.end(), f.begin());
  std::copy(src.begin(), src.end(), f.begin() + 6);
  f[12] = static_cast<std::uint8_t>(ethertype >> 8);
  f[13] = static_cast<std::uint8_t>(ethertype & 0xFF);
  f.resize(total_len);
  return f;
}

template <typename Fixture>
void deliver_truncations(Fixture& world, std::uint16_t ethertype) {
  const auto cmac = world.client().address().mac;
  const auto smac = world.server().address().mac;
  for (std::size_t len = 0; len <= 60; ++len) {
    // Pure garbage of every length.
    world.client().deliver(std::vector<std::uint8_t>(len, 0xA5));
    // A valid eth prefix whose upper-layer headers are cut short: this
    // penetrates to the IP/BLAST length checks instead of the eth ones.
    world.client().deliver(eth_frame(cmac, smac, ethertype, len));
    world.server().deliver(eth_frame(smac, cmac, ethertype, len));
  }
}

TEST(FuzzFrames, TcpStackSurvivesTruncatedFrames) {
  net::World world(net::StackKind::kTcpIp, code::StackConfig::Std(),
                   code::StackConfig::Std());
  world.start(1000);
  ASSERT_TRUE(world.run_until_roundtrips(3));
  deliver_truncations(world, proto::kEtherTypeIp);
  // The ping-pong still makes progress afterwards.
  const auto rt = world.client_roundtrips();
  EXPECT_TRUE(world.run_until_roundtrips(rt + 3, 60'000'000));
}

TEST(FuzzFrames, RpcStackSurvivesTruncatedFrames) {
  net::World world(net::StackKind::kRpc, code::StackConfig::Std(),
                   code::StackConfig::All());
  world.start(1000);
  ASSERT_TRUE(world.run_until_roundtrips(3));
  const auto bad_before = world.client().blast()->bad_frames();
  deliver_truncations(world, proto::kEtherTypeBlast);
  // Frames with a valid eth header but fewer than 16 BLAST header bytes
  // are counted as bad, not silently eaten.
  EXPECT_GT(world.client().blast()->bad_frames(), bad_before);
  const auto rt = world.client_roundtrips();
  EXPECT_TRUE(world.run_until_roundtrips(rt + 3, 60'000'000));
}

TEST(FuzzFrames, OversizedFrameDroppedByDriver) {
  net::World world(net::StackKind::kTcpIp, code::StackConfig::Std(),
                   code::StackConfig::Std());
  world.start(1000);
  ASSERT_TRUE(world.run_until_roundtrips(2));
  const auto dropped = world.client().lance().rx_dropped();
  world.client().deliver(std::vector<std::uint8_t>(1600, 0x42));
  EXPECT_EQ(world.client().lance().rx_dropped(), dropped + 1);
  const auto rt = world.client_roundtrips();
  EXPECT_TRUE(world.run_until_roundtrips(rt + 3, 60'000'000));
}

// --- crafted BLAST headers with valid checksums -----------------------------

class BlastFuzz : public ::testing::Test {
 protected:
  BlastFuzz()
      : world(net::StackKind::kRpc, code::StackConfig::Std(),
              code::StackConfig::All()) {
    world.start(1000);
    EXPECT_TRUE(world.run_until_roundtrips(2));
  }

  /// An eth+BLAST frame with a correct checksum over (header, payload):
  /// it passes the integrity check, so only the field validation can
  /// reject it.
  void deliver_blast(std::uint32_t msg_id, std::uint16_t ix,
                     std::uint16_t nfrags, std::uint32_t total_len,
                     std::uint16_t flags, std::size_t payload_bytes,
                     bool break_checksum = false) {
    const auto& cmac = world.client().address().mac;
    const auto& smac = world.server().address().mac;
    std::vector<std::uint8_t> f;
    f.insert(f.end(), cmac.begin(), cmac.end());
    f.insert(f.end(), smac.begin(), smac.end());
    f.push_back(0x88);
    f.push_back(0xB5);
    std::array<std::uint8_t, proto::Blast::kHeaderBytes> bh{};
    proto::put_be32(bh, 0, msg_id);
    proto::put_be16(bh, 4, ix);
    proto::put_be16(bh, 6, nfrags);
    proto::put_be32(bh, 8, total_len);
    proto::put_be16(bh, 12, flags);
    std::vector<std::uint8_t> payload(payload_bytes, 0x6B);
    std::uint16_t ck = proto::inet_checksum(
        payload, proto::checksum_accumulate(std::span(bh.data(), 14)));
    if (break_checksum) ck ^= 0x0F0F;
    proto::put_be16(bh, 14, ck);
    f.insert(f.end(), bh.begin(), bh.end());
    f.insert(f.end(), payload.begin(), payload.end());
    f.resize(std::max<std::size_t>(f.size(), 64), 0);
    world.client().deliver(f);
  }

  proto::Blast& blast() { return *world.client().blast(); }
  net::World world;
};

TEST_F(BlastFuzz, HugeFragmentCountRejected) {
  const auto before = blast().bad_frames();
  // 0xFFFF fragments would reserve gigabytes in the reassembly map.
  deliver_blast(0x9001, 0, 0xFFFF, 0x00FFFFFF, 0, 40);
  EXPECT_EQ(blast().bad_frames(), before + 1);
  EXPECT_EQ(blast().reassemblies_pending(), 0u);
}

TEST_F(BlastFuzz, FragmentIndexBeyondCountRejected) {
  const auto before = blast().bad_frames();
  deliver_blast(0x9002, /*ix=*/5, /*nfrags=*/3, 3 * 1024 - 100, 0, 40);
  EXPECT_EQ(blast().bad_frames(), before + 1);
  EXPECT_EQ(blast().reassemblies_pending(), 0u);
}

TEST_F(BlastFuzz, TotalLenInconsistentWithFragmentCountRejected) {
  const auto before = blast().bad_frames();
  // 3 fragments of <=1024 bytes cannot carry 10 bytes total (the sender
  // would have used 1), nor 100000 (needs 98 fragments).
  deliver_blast(0x9003, 0, 3, 10, 0, 10);
  deliver_blast(0x9004, 0, 3, 100000, 0, 40);
  EXPECT_EQ(blast().bad_frames(), before + 2);
  EXPECT_EQ(blast().reassemblies_pending(), 0u);
}

TEST_F(BlastFuzz, SingleFragmentOverPayloadLimitRejected) {
  const auto before = blast().bad_frames();
  deliver_blast(0x9005, 0, 1, 5000, 0, 40);
  EXPECT_EQ(blast().bad_frames(), before + 1);
}

TEST_F(BlastFuzz, OddNackLengthRejected) {
  const auto before = blast().bad_frames();
  deliver_blast(0x9006, 0, 0, 7, proto::Blast::kFlagNack, 7);
  EXPECT_EQ(blast().bad_frames(), before + 1);
}

TEST_F(BlastFuzz, ValidHeaderBadChecksumCountedSeparately) {
  const auto frames = blast().bad_frames();
  const auto sums = blast().bad_checksum_drops();
  deliver_blast(0x9007, 0, 1, 40, 0, 40, /*break_checksum=*/true);
  EXPECT_EQ(blast().bad_frames(), frames);
  EXPECT_EQ(blast().bad_checksum_drops(), sums + 1);
}

TEST_F(BlastFuzz, ConflictingRetransmitMetadataRejected) {
  // Two fragments of one msg_id that disagree about nfrags/total_len: the
  // second must not resize or clobber the first's reassembly state.
  const auto before = blast().bad_frames();
  deliver_blast(0x9008, 0, 3, 2500, 0, 1024);
  EXPECT_EQ(blast().reassemblies_pending(), 1u);
  deliver_blast(0x9008, 1, 4, 3500, 0, 1024);
  EXPECT_EQ(blast().bad_frames(), before + 1);
  EXPECT_EQ(blast().reassemblies_pending(), 1u);
  blast().flush();  // do not leak the half-built reassembly (or its timer)
  EXPECT_EQ(blast().reassemblies_pending(), 0u);
}

}  // namespace
}  // namespace l96
