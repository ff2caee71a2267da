#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "net/arq.h"
#include "net/error.h"
#include "net/frame.h"
#include "net/recovery.h"
#include "util/bits.h"

namespace tft::net {
namespace {

Frame sample_frame(std::uint64_t payload_bits = 37) {
  Frame f;
  f.header.type = FrameType::kData;
  f.header.src = 2;
  f.header.dst = 5;
  f.header.seq = 41;
  f.header.phase = 3;
  f.header.payload_bits = payload_bits;
  f.payload = make_filler_payload(f.header);
  return f;
}

TEST(NetFrame, RoundTripsThroughTheParser) {
  const Frame f = sample_frame();
  const auto wire = serialize_frame(f);
  EXPECT_EQ(wire.size(), frame_wire_bytes(f));

  FrameParser parser;
  parser.feed(wire);
  Frame out;
  ASSERT_TRUE(parser.next(out));
  EXPECT_EQ(out.header.type, f.header.type);
  EXPECT_EQ(out.header.src, f.header.src);
  EXPECT_EQ(out.header.dst, f.header.dst);
  EXPECT_EQ(out.header.seq, f.header.seq);
  EXPECT_EQ(out.header.phase, f.header.phase);
  EXPECT_EQ(out.header.payload_bits, f.header.payload_bits);
  EXPECT_EQ(out.payload, f.payload);
  EXPECT_TRUE(verify_filler_payload(out));
  EXPECT_FALSE(parser.next(out));
  EXPECT_EQ(parser.corrupt_frames(), 0u);
}

TEST(NetFrame, ReassemblesFromByteSizedChunks) {
  const Frame a = sample_frame(13);
  const Frame b = sample_frame(64);
  auto wire = serialize_frame(a);
  const auto wb = serialize_frame(b);
  wire.insert(wire.end(), wb.begin(), wb.end());

  FrameParser parser;
  std::size_t parsed = 0;
  Frame out;
  for (const std::uint8_t byte : wire) {
    parser.feed(std::span<const std::uint8_t>(&byte, 1));
    while (parser.next(out)) ++parsed;
  }
  EXPECT_EQ(parsed, 2u);
  EXPECT_EQ(parser.corrupt_frames(), 0u);
}

TEST(NetFrame, CrcCatchesEveryBodyBitFlipAndResynchronizes) {
  const Frame f = sample_frame(21);
  const auto wire = serialize_frame(f);
  const auto good = serialize_frame(sample_frame(9));

  // Flip each bit of the body+CRC region in turn; the parser must reject
  // the frame and still parse the intact frame that follows.
  for (std::size_t bit = 32; bit < wire.size() * 8; bit += 7) {
    auto corrupted = wire;
    corrupted[bit / 8] ^= static_cast<std::uint8_t>(1U << (7 - bit % 8));
    FrameParser parser;
    parser.feed(corrupted);
    parser.feed(good);
    Frame out;
    ASSERT_TRUE(parser.next(out)) << "resync failed after flipping bit " << bit;
    EXPECT_EQ(out.header.payload_bits, 9u);
    EXPECT_EQ(parser.corrupt_frames(), 1u);
    EXPECT_FALSE(parser.next(out));
  }
}

TEST(NetFrame, TruncatedStreamYieldsNothing) {
  const auto wire = serialize_frame(sample_frame(100));
  for (std::size_t cut = 0; cut + 1 < wire.size(); cut += 3) {
    FrameParser parser;
    parser.feed(std::span<const std::uint8_t>(wire.data(), cut));
    Frame out;
    EXPECT_FALSE(parser.next(out));
  }
}

TEST(NetFrame, InsaneLengthPrefixIsDroppedNotAllocated) {
  std::vector<std::uint8_t> bogus = {0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3};
  FrameParser parser;
  parser.feed(bogus);
  Frame out;
  EXPECT_FALSE(parser.next(out));
  EXPECT_EQ(parser.corrupt_frames(), 1u);
  // The parser recovers for subsequent intact traffic.
  parser.feed(serialize_frame(sample_frame(5)));
  EXPECT_TRUE(parser.next(out));
}

TEST(NetFrame, FillerPayloadIsDeterministicAndAddressed) {
  const Frame f = sample_frame(77);
  EXPECT_EQ(make_filler_payload(f.header), make_filler_payload(f.header));
  Frame other = f;
  other.header.seq += 1;
  EXPECT_NE(make_filler_payload(other.header), f.payload);

  Frame tampered = f;
  tampered.payload[0] ^= 0x80;
  EXPECT_FALSE(verify_filler_payload(tampered));
}

// CRC32 of make_filler_payload for a fixed address (src 2, dst 4, seq 3),
// captured from the bit-at-a-time generator the word-level one replaced.
// Sizes straddle every byte and word boundary, plus a 438 KB bulk frame.
struct FillerPin {
  std::uint32_t session;
  std::uint64_t bits;
  std::uint32_t crc;
};

constexpr FillerPin kFillerPins[] = {
    {0, 0, 0x00000000},       {0, 1, 0x3FBA6CAD},       {0, 7, 0x5D677172},
    {0, 8, 0x0A0FC457},       {0, 9, 0x9E9F240C},       {0, 63, 0xDA403095},
    {0, 64, 0x9D228B19},      {0, 65, 0x003311AD},      {0, 1000003, 0xC452A412},
    {0, 3506136, 0xF188B3DB}, {1, 0, 0x00000000},       {1, 1, 0xD202EF8D},
    {1, 7, 0x616495A3},       {1, 8, 0x7F6567CB},       {1, 9, 0xAA099F5E},
    {1, 63, 0xEC214F73},      {1, 64, 0x9CCB282D},      {1, 65, 0x93FF0364},
    {1, 1000003, 0xCF2BECC0}, {1, 3506136, 0x98059184},
};

FrameHeader pinned_header(std::uint32_t session, std::uint64_t bits) {
  FrameHeader h;
  h.src = 2;
  h.dst = 4;
  h.seq = 3;
  h.phase = 1;
  h.payload_bits = bits;
  h.session = session;
  return h;
}

TEST(NetFrame, FillerPayloadBytesArePinned) {
  for (const FillerPin& pin : kFillerPins) {
    SCOPED_TRACE(testing::Message() << "session " << pin.session << " bits " << pin.bits);
    Frame f;
    f.header = pinned_header(pin.session, pin.bits);
    f.payload = make_filler_payload(f.header);
    ASSERT_EQ(f.payload.size(), (pin.bits + 7) / 8);
    EXPECT_EQ(crc32(f.payload), pin.crc);
    EXPECT_TRUE(verify_filler_payload(f));
  }
}

TEST(NetFrame, RelayAndBatchFillerBytesArePinned) {
  // Both append the filler after their own fields, so it starts mid-byte.
  const std::pair<std::uint64_t, std::uint32_t> relay[] = {
      {0, 0x3FBA6CAD}, {5, 0xB5DFA541}, {64, 0xE1A899FA}, {131, 0x06A0B1E7},
      {1000003, 0xB99468E2}};
  for (const auto& [bits, crc] : relay) {
    const Frame f = make_relay_frame(/*src=*/1, /*seq=*/9, /*k=*/6, /*recipient=*/4, bits);
    EXPECT_EQ(crc32(f.payload), crc) << "relay message bits " << bits;
    EXPECT_EQ(decode_relay_recipient(f, 6), 4u);
  }
  const std::vector<ChargeRec> charges = {{1, 0}, {2, 13}, {2, 64}, {3, 200}, {5, 70001}};
  for (const auto& [session, crc] : {std::pair{0u, 0x2FCE4183u}, std::pair{3u, 0xC082E9EEu}}) {
    const Frame f = make_batch_frame(/*src=*/2, /*dst=*/4, /*seq=*/17, charges, session);
    EXPECT_EQ(f.header.payload_bits, 70371u);
    EXPECT_EQ(crc32(f.payload), crc) << "batch session " << session;
    std::vector<ChargeRec> out;
    EXPECT_TRUE(decode_batch_frame(f, out));
    EXPECT_EQ(out.size(), charges.size());
  }
}

TEST(NetFrame, VerifyRejectsEveryBitFlipAndWrongLength) {
  for (const std::uint64_t bits : {1u, 9u, 63u, 64u, 65u, 200u}) {
    Frame f;
    f.header = pinned_header(/*session=*/1, bits);
    f.payload = make_filler_payload(f.header);
    ASSERT_TRUE(verify_filler_payload(f));
    // Every bit of every byte, pad bits included: a flipped pad bit is a
    // non-canonical payload, not the filler.
    for (std::size_t bit = 0; bit < f.payload.size() * 8; ++bit) {
      Frame flipped = f;
      flipped.payload[bit / 8] ^= static_cast<std::uint8_t>(0x80u >> (bit % 8));
      EXPECT_FALSE(verify_filler_payload(flipped)) << "bits " << bits << " flip " << bit;
    }
    Frame longer = f;
    longer.payload.push_back(0);
    EXPECT_FALSE(verify_filler_payload(longer)) << "bits " << bits;
    Frame shorter = f;
    shorter.payload.pop_back();
    EXPECT_FALSE(verify_filler_payload(shorter)) << "bits " << bits;
  }
  Frame empty;
  empty.header = pinned_header(/*session=*/0, /*bits=*/0);
  EXPECT_TRUE(verify_filler_payload(empty));
  empty.payload.push_back(0);
  EXPECT_FALSE(verify_filler_payload(empty));
}

TEST(NetFrame, ZeroPayloadFrameIsLegal) {
  Frame f = sample_frame(0);
  EXPECT_TRUE(f.payload.empty());
  FrameParser parser;
  parser.feed(serialize_frame(f));
  Frame out;
  ASSERT_TRUE(parser.next(out));
  EXPECT_EQ(out.header.payload_bits, 0u);
  EXPECT_TRUE(verify_filler_payload(out));
}

TEST(NetFrame, NonCanonicalPadBitsAreRejected) {
  Frame f = sample_frame(3);  // one payload byte, five pad bits
  ASSERT_EQ(f.payload.size(), 1u);
  f.payload[0] |= 0x01;  // dirty the lowest pad bit
  // serialize_frame emits it; the decoder must refuse the body.
  FrameParser parser;
  parser.feed(serialize_frame(f));
  Frame out;
  EXPECT_FALSE(parser.next(out));
  EXPECT_EQ(parser.corrupt_frames(), 1u);
}

TEST(NetFrame, RelayFrameCarriesRecipientInVertexBitsOfK) {
  const std::size_t k = 6;
  const Frame f = make_relay_frame(/*src=*/1, /*seq=*/9, k, /*recipient=*/4,
                                   /*message_bits=*/50);
  EXPECT_EQ(f.header.payload_bits, 50 + vertex_bits(k));
  EXPECT_EQ(decode_relay_recipient(f, k), 4u);

  // Round trip survives serialization.
  FrameParser parser;
  parser.feed(serialize_frame(f));
  Frame out;
  ASSERT_TRUE(parser.next(out));
  EXPECT_EQ(decode_relay_recipient(out, k), 4u);
}

TEST(NetFrame, RelayRecipientOutsideKIsTyped) {
  const std::size_t k = 4;
  Frame f = make_relay_frame(0, 0, k, 3, 8);
  try {
    // Same 2-bit field width, but recipient 3 is out of range for k=3.
    (void)decode_relay_recipient(f, /*k=*/3);
    FAIL() << "decoded a recipient outside [0, k)";
  } catch (const NetError& e) {
    EXPECT_EQ(e.kind(), NetErrorKind::kCorrupt);
  }
}

TEST(NetFrame, SerializeRejectsOversizedAndLyingPayloads) {
  Frame f = sample_frame(16);
  f.payload.push_back(0);  // size no longer matches payload_bits
  EXPECT_THROW((void)serialize_frame(f), NetError);

  Frame huge;
  huge.header.payload_bits = kMaxPayloadBits + 1;
  huge.payload.assign((kMaxPayloadBits + 1 + 7) / 8, 0);
  EXPECT_THROW((void)serialize_frame(huge), NetError);
}

TEST(NetFrame, Crc32MatchesKnownVector) {
  // IEEE CRC-32 of "123456789" is 0xCBF43926.
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(digits), 0xCBF43926u);
}

// ---- crash-recovery control frames (net/recovery.h) -------------------------

std::vector<Frame> control_frames() {
  PlayerCheckpoint ck;
  ck.player = 1;
  ck.seed = 77;
  ck.phase = 2;
  ck.up.next_seq = 5;
  ck.up.next_expected = 5;
  ck.up.phase_bits = {64, 128};
  return {make_player_down_frame(/*src=*/4, /*dst=*/1, /*ctrl_seq=*/3, /*player=*/1,
                                 /*phase=*/2),
          make_resume_frame(/*src=*/1, /*dst=*/4, /*ctrl_seq=*/0, encode_checkpoint(ck))};
}

TEST(NetFrame, ControlFrameTypesRoundTripThroughTheParser) {
  for (const Frame& f : control_frames()) {
    SCOPED_TRACE(static_cast<int>(f.header.type));
    const auto wire = serialize_frame(f);
    EXPECT_EQ(wire.size(), frame_wire_bytes(f));
    FrameParser parser;
    parser.feed(wire);
    Frame out;
    ASSERT_TRUE(parser.next(out));
    EXPECT_EQ(out.header.type, f.header.type);
    EXPECT_EQ(out.header.src, f.header.src);
    EXPECT_EQ(out.header.dst, f.header.dst);
    EXPECT_EQ(out.header.seq, f.header.seq);
    EXPECT_EQ(out.header.payload_bits, f.header.payload_bits);
    EXPECT_EQ(out.payload, f.payload);
    EXPECT_EQ(parser.corrupt_frames(), 0u);
  }
}

TEST(NetFrame, ControlFrameTruncationYieldsNothing) {
  for (const Frame& f : control_frames()) {
    const auto wire = serialize_frame(f);
    for (std::size_t cut = 0; cut + 1 < wire.size(); ++cut) {
      FrameParser parser;
      parser.feed(std::span<const std::uint8_t>(wire.data(), cut));
      Frame out;
      EXPECT_FALSE(parser.next(out)) << "type " << static_cast<int>(f.header.type)
                                     << " parsed from a " << cut << "-byte prefix";
    }
  }
}

TEST(NetFrame, ControlFrameCrcFlipIsRejectedAndResynchronizes) {
  const auto good = serialize_frame(sample_frame(9));
  for (const Frame& f : control_frames()) {
    const auto wire = serialize_frame(f);
    for (std::size_t bit = 32; bit < wire.size() * 8; bit += 5) {
      auto corrupted = wire;
      corrupted[bit / 8] ^= static_cast<std::uint8_t>(1U << (7 - bit % 8));
      FrameParser parser;
      parser.feed(corrupted);
      parser.feed(good);
      Frame out;
      ASSERT_TRUE(parser.next(out)) << "resync failed after flipping bit " << bit;
      EXPECT_EQ(out.header.payload_bits, 9u);
      EXPECT_EQ(parser.corrupt_frames(), 1u);
      EXPECT_FALSE(parser.next(out));
    }
  }
}

TEST(NetFrame, TypeValuesPastResumeAreRejected) {
  // The widened 3-bit type field leaves 6 and 7 unassigned; a frame
  // claiming one must be dropped as corrupt, not aliased onto a real type.
  for (const std::uint8_t bogus : {6, 7}) {
    Frame f = sample_frame(8);
    f.header.type = static_cast<FrameType>(bogus);
    FrameParser parser;
    parser.feed(serialize_frame(f));
    Frame out;
    EXPECT_FALSE(parser.next(out));
    EXPECT_EQ(parser.corrupt_frames(), 1u);
  }
}

}  // namespace
}  // namespace tft::net
