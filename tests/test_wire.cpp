#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "comm/wire.h"
#include "graph/generators.h"
#include "util/bits.h"
#include "util/rng.h"

namespace tft {
namespace {

TEST(BitStream, BitRoundTrip) {
  BitWriter w;
  const bool pattern[] = {true, false, false, true, true, true, false, true, false};
  for (const bool b : pattern) w.put_bit(b);
  BitReader r(w.bytes(), w.bit_size());
  for (const bool b : pattern) EXPECT_EQ(r.get_bit(), b);
  EXPECT_TRUE(r.exhausted());
}

TEST(BitStream, FixedWidthRoundTrip) {
  BitWriter w;
  w.put_bits(0b1011, 4);
  w.put_bits(1023, 10);
  w.put_bits(0, 1);
  w.put_bits(0xFFFFFFFFFFFFFFFFULL, 64);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(r.get_bits(4), 0b1011u);
  EXPECT_EQ(r.get_bits(10), 1023u);
  EXPECT_EQ(r.get_bits(1), 0u);
  EXPECT_EQ(r.get_bits(64), 0xFFFFFFFFFFFFFFFFULL);
}

TEST(BitStream, GammaRoundTrip) {
  BitWriter w;
  const std::uint64_t values[] = {0, 1, 2, 3, 7, 8, 100, 65535, 1000000};
  for (const auto v : values) w.put_gamma(v);
  BitReader r(w.bytes(), w.bit_size());
  for (const auto v : values) EXPECT_EQ(r.get_gamma(), v);
}

TEST(BitStream, GammaSizeIsLogarithmic) {
  // gamma(v) uses 2*floor(log2(v+1)) + 1 bits.
  BitWriter w;
  w.put_gamma(0);
  EXPECT_EQ(w.bit_size(), 1u);
  BitWriter w2;
  w2.put_gamma(1);  // encodes 2: "010"
  EXPECT_EQ(w2.bit_size(), 3u);
  BitWriter w3;
  w3.put_gamma(1023);  // encodes 1024: 21 bits
  EXPECT_EQ(w3.bit_size(), 21u);
}

TEST(BitStream, ReaderThrowsPastEnd) {
  BitWriter w;
  w.put_bit(true);
  BitReader r(w.bytes(), w.bit_size());
  (void)r.get_bit();
  EXPECT_THROW((void)r.get_bit(), std::out_of_range);
}

// ---- BitWriter / BitReader against bit-at-a-time reference models ----------

/// One bit per step, one byte appended when a bit starts it: the plainest
/// statement of the MSB-first format the word-level codec must reproduce.
struct RefWriter {
  std::vector<std::uint8_t> bytes;
  std::uint64_t bits = 0;

  void put_bit(bool b) {
    if (bits % 8 == 0) bytes.push_back(0);
    if (b) bytes.back() |= static_cast<std::uint8_t>(0x80u >> (bits % 8));
    ++bits;
  }
  void put_bits(std::uint64_t value, std::uint32_t width) {
    for (std::uint32_t i = width; i > 0; --i) put_bit(((value >> (i - 1)) & 1) != 0);
  }
  void put_gamma(std::uint64_t value) {
    const std::uint64_t v = value + 1;
    const auto width = static_cast<std::uint32_t>(bit_width_of(v));
    for (std::uint32_t i = 1; i < width; ++i) put_bit(false);
    put_bits(v, width);
  }
};

/// Bit-at-a-time reader with BitReader's bounds: a read past the end
/// throws once every bit before the end is consumed.
struct RefReader {
  const std::vector<std::uint8_t>& bytes;
  std::uint64_t bit_size;
  std::uint64_t pos = 0;

  bool get_bit() {
    if (pos >= bit_size) throw WireError("BitReader: read past end of buffer");
    const bool b = (bytes[pos / 8] & (0x80u >> (pos % 8))) != 0;
    ++pos;
    return b;
  }
  std::uint64_t get_bits(std::uint32_t width) {
    std::uint64_t v = 0;
    for (std::uint32_t i = 0; i < width; ++i) v = (v << 1) | (get_bit() ? 1 : 0);
    return v;
  }
};

/// A value spanning every magnitude, with junk above `width` for put_bits
/// to mask off.
std::uint64_t random_value(Rng& rng) { return rng() >> rng.below(64); }

TEST(BitStream, WriterMatchesBitAtATimeReference) {
  Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    BitWriter w;
    RefWriter ref;
    const int ops = 1 + static_cast<int>(rng.below(60));
    for (int op = 0; op < ops; ++op) {
      switch (rng.below(3)) {
        case 0: {
          const auto width = static_cast<std::uint32_t>(rng.below(65));
          const std::uint64_t value = random_value(rng);
          w.put_bits(value, width);
          ref.put_bits(value, width);
          break;
        }
        case 1: {
          const std::uint64_t value = random_value(rng);
          w.put_gamma(value);
          ref.put_gamma(value);
          break;
        }
        default: {
          const bool b = rng.below(2) != 0;
          w.put_bit(b);
          ref.put_bit(b);
        }
      }
      ASSERT_EQ(w.bit_size(), ref.bits) << "trial " << trial << " op " << op;
      ASSERT_EQ(w.bytes(), ref.bytes) << "trial " << trial << " op " << op;
    }
  }
  BitWriter w;
  EXPECT_THROW(w.put_bits(0, 65), std::invalid_argument);
  EXPECT_EQ(w.bit_size(), 0u);
}

TEST(BitStream, ReaderMatchesBitAtATimeReference) {
  Rng rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> bytes(rng.below(24));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    // Sometimes overstate bit_size: both clamp to the real buffer.
    const std::uint64_t bit_size = rng.below(bytes.size() * 8 + 16);
    BitReader r(bytes, bit_size);
    RefReader ref{bytes, std::min<std::uint64_t>(bit_size, bytes.size() * 8)};
    for (int op = 0; op < 40; ++op) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << " op " << op);
      const auto width = static_cast<std::uint32_t>(rng.below(65));
      bool threw = false;
      std::uint64_t got = 0;
      try {
        got = r.get_bits(width);
      } catch (const WireError& e) {
        threw = true;
        EXPECT_STREQ(e.what(), "BitReader: read past end of buffer");
      }
      bool ref_threw = false;
      std::uint64_t want = 0;
      try {
        want = ref.get_bits(width);
      } catch (const WireError&) {
        ref_threw = true;
      }
      ASSERT_EQ(threw, ref_threw);
      ASSERT_EQ(got, want);
      ASSERT_EQ(r.position(), ref.pos);
      if (threw) break;
    }
  }
  const std::vector<std::uint8_t> buf(16, 0xFF);
  BitReader r(buf, buf.size() * 8);
  EXPECT_THROW((void)r.get_bits(65), WireError);
  EXPECT_EQ(r.position(), 0u);
}

TEST(BitStream, ReaderDecodesWriterOutputAtEveryAlignment) {
  Rng rng(19);
  for (std::uint32_t lead = 0; lead < 8; ++lead) {
    for (std::uint32_t width = 0; width <= 64; ++width) {
      const std::uint64_t value = width == 0 ? 0 : rng() >> (64 - width);
      BitWriter w;
      w.put_bits(0, lead);
      w.put_bits(value, width);
      w.put_gamma(width);
      BitReader r(w.bytes(), w.bit_size());
      EXPECT_EQ(r.get_bits(lead), 0u);
      EXPECT_EQ(r.get_bits(width), value) << "lead " << lead << " width " << width;
      EXPECT_EQ(r.get_gamma(), width);
      EXPECT_TRUE(r.exhausted());
    }
  }
}

TEST(Wire, EdgeListRoundTrip) {
  Rng rng(1);
  const Graph g = gen::gnp(500, 0.02, rng);
  BitWriter w;
  encode_edge_list(w, g.n(), g.edges());
  BitReader r(w.bytes(), w.bit_size());
  const auto decoded = decode_edge_list(r, g.n());
  ASSERT_EQ(decoded.size(), g.num_edges());
  for (std::size_t i = 0; i < decoded.size(); ++i) EXPECT_EQ(decoded[i], g.edge(i));
}

TEST(Wire, EmptyEdgeList) {
  BitWriter w;
  encode_edge_list(w, 100, {});
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_TRUE(decode_edge_list(r, 100).empty());
}

TEST(Wire, EncodedSizeBeatsChargedCost) {
  // The idealized Transcript charge for an m-edge message is
  // count_bits(m) + m * 2 ceil(log n); the delta coding should not exceed it
  // (so the idealized accounting never understates real protocols).
  Rng rng(2);
  for (const double p : {0.005, 0.02, 0.1}) {
    const Graph g = gen::gnp(400, p, rng);
    const std::uint64_t charged =
        count_bits(g.num_edges()) + g.num_edges() * edge_bits(g.n());
    const std::uint64_t actual = encoded_edge_list_bits(g.n(), g.edges());
    EXPECT_LE(actual, charged) << "p=" << p << " m=" << g.num_edges();
  }
}

TEST(Wire, VertexListRoundTrip) {
  std::vector<Vertex> vs{3, 17, 17, 254, 255, 1000};
  BitWriter w;
  encode_vertex_list(w, 1024, vs);
  BitReader r(w.bytes(), w.bit_size());
  const auto decoded = decode_vertex_list(r, 1024);
  // Encoder sorts; duplicates survive (delta 0).
  ASSERT_EQ(decoded.size(), vs.size());
  EXPECT_EQ(decoded.front(), 3u);
  EXPECT_EQ(decoded.back(), 1000u);
}

TEST(Wire, TruncatedEdgeListThrowsWireError) {
  Rng rng(4);
  const Graph g = gen::gnp(300, 0.03, rng);
  BitWriter w;
  encode_edge_list(w, g.n(), g.edges());
  // Cutting the payload anywhere strictly inside must yield a typed error
  // (the count no longer fits) — never a crash or a silent partial decode
  // beyond the buffer.
  for (const std::uint64_t cut : {w.bit_size() / 2, w.bit_size() - 1, std::uint64_t{5}}) {
    BitReader r(w.bytes(), cut);
    EXPECT_THROW((void)decode_edge_list(r, g.n()), WireError) << "cut=" << cut;
  }
}

TEST(Wire, CorruptCountDoesNotOverallocate) {
  // A huge gamma-coded count with no payload behind it must be rejected
  // before any reserve() — decoding 2^40 from a 7-byte buffer would
  // otherwise attempt a multi-terabyte allocation.
  BitWriter w;
  w.put_gamma((std::uint64_t{1} << 40) - 1);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_THROW((void)decode_edge_list(r, 1024), WireError);
  BitReader r2(w.bytes(), w.bit_size());
  EXPECT_THROW((void)decode_vertex_list(r2, 1024), WireError);
}

TEST(Wire, OutOfUniverseEndpointRejected) {
  // An edge list for a 1000-vertex universe decoded as a 10-vertex one:
  // every endpoint check must fire instead of wrapping into Vertex.
  BitWriter w;
  const std::vector<Edge> edges{Edge(500, 900)};
  encode_edge_list(w, 1000, edges);
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_THROW((void)decode_edge_list(r, 10), WireError);

  BitWriter wv;
  const std::vector<Vertex> vs{999};
  encode_vertex_list(wv, 1000, vs);
  BitReader rv(wv.bytes(), wv.bit_size());
  EXPECT_THROW((void)decode_vertex_list(rv, 10), WireError);
}

TEST(Wire, OverstatedBitSizeIsClampedToBuffer) {
  // Corrupt framing: a bit_size claiming more bits than the byte buffer
  // holds. The reader clamps to the real buffer, so reads fail cleanly at
  // the true end instead of touching memory past it.
  BitWriter w;
  w.put_bits(0b101, 3);
  BitReader r(w.bytes(), /*bit_size=*/1000);
  EXPECT_EQ(r.remaining(), 8u);  // one byte materialized
  (void)r.get_bits(8);
  EXPECT_THROW((void)r.get_bit(), WireError);
}

TEST(Wire, AllZeroGammaPrefixIsCorrupt) {
  // 64+ leading zeros cannot come from any encoder (a legal gamma code
  // stores value+1 in at most 64 significand bits): typed rejection, not an
  // unbounded shift.
  const std::vector<std::uint8_t> zeros(16, 0);
  BitReader r(zeros, zeros.size() * 8);
  EXPECT_THROW((void)r.get_gamma(), WireError);
}

TEST(Wire, WireErrorIsOutOfRange) {
  // Backward compatibility: callers that guard with std::out_of_range keep
  // working.
  BitWriter w;
  w.put_bit(true);
  BitReader r(w.bytes(), w.bit_size());
  (void)r.get_bit();
  EXPECT_THROW((void)r.get_bit(), std::out_of_range);
}

TEST(Wire, ConcatenatedMessagesDecodeIndependently) {
  Rng rng(3);
  const Graph g1 = gen::gnp(200, 0.05, rng);
  const Graph g2 = gen::cycle(64);
  BitWriter w;
  encode_edge_list(w, 200, g1.edges());
  encode_edge_list(w, 200, g2.edges());
  BitReader r(w.bytes(), w.bit_size());
  EXPECT_EQ(decode_edge_list(r, 200).size(), g1.num_edges());
  EXPECT_EQ(decode_edge_list(r, 200).size(), g2.num_edges());
}

}  // namespace
}  // namespace tft
