// dmc::audit — wire-format codecs for CONGEST message payloads.
//
// The simulator transfers C++ values (std::any) whose bandwidth cost is a
// *declared* bit count (network.hpp: "semantics by value, costs by
// declaration"). That compromise is only honest if the declarations are
// achievable by a real encoding. This header supplies the machinery to
// prove it:
//
//   - BitWriter / BitReader: bit-granular serialization primitives whose
//     integer encodings match the declared-size helpers exactly
//     (uint_bits(v) == congest::count_bits(v), and an id for an n-node
//     network occupies congest::id_bits(n) bits — locked by
//     tests/wire_audit_test.cpp);
//   - WireCodec + a process-wide registry: every payload type a protocol
//     sends registers a real encoder/decoder (protocol .cpp files register
//     their message structs via register_codec<T> at static-init time);
//   - audit_payload: encode a payload through its codec, cross-check the
//     true encoded size against the declared Message::bits, and verify the
//     encode/decode round trip — the enforcement backend of
//     NetworkConfig::audit (see network.hpp).
//
// Framing convention: a CONGEST message has a physically known length, so
// a codec may size its *final* variable-width field from the frame length
// (BitReader::remaining / get_rest) instead of paying for a length prefix,
// exactly like real packet formats do. Interior variable-width fields use
// varuint/varint (8-bit groups, 7 data bits each) or explicit width fields.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <typeindex>
#include <vector>

namespace dmc::audit {

/// Minimal width of v in bits (>= 1); equals congest::count_bits(v).
int uint_bits(std::uint64_t v);

/// ZigZag mapping for signed varints (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...).
std::uint64_t zigzag(std::int64_t v);
std::int64_t unzigzag(std::uint64_t v);

/// Bit cost of put_varuint(v): 8 bits per started 7-bit group.
int varuint_bits(std::uint64_t v);
int varint_bits(std::int64_t v);

class BitWriter {
 public:
  void put_bit(bool b);
  /// Fixed-width field; throws std::invalid_argument if v needs more bits.
  void put_uint(std::uint64_t v, int width);
  /// Minimal-width field (uint_bits(v) bits). Decodable only as the final
  /// field of a frame (BitReader::get_rest).
  void put_uint_min(std::uint64_t v);
  /// LEB128-style varint: groups of 7 data bits + 1 continuation bit.
  void put_varuint(std::uint64_t v);
  void put_varint(std::int64_t v);

  long bits() const { return bits_; }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
  long bits_ = 0;
};

class BitReader {
 public:
  BitReader(const std::vector<std::uint8_t>& bytes, long nbits)
      : bytes_(bytes), nbits_(nbits) {}

  bool get_bit();
  std::uint64_t get_uint(int width);
  std::uint64_t get_varuint();
  std::int64_t get_varint();
  /// Consumes all remaining bits (<= 64) as one unsigned field.
  std::uint64_t get_rest();
  long remaining() const { return nbits_ - pos_; }

 private:
  const std::vector<std::uint8_t>& bytes_;
  long nbits_ = 0;
  long pos_ = 0;
};

/// Network-level context a codec may rely on (standard CONGEST knowledge).
struct WireContext {
  int n = 0;          // number of nodes (fixes id field widths)
  int bandwidth = 0;  // bits per edge per round
};

/// Type-erased codec entry. All callbacks must be stateless and
/// deterministic; `budget` (optional) overrides the declared-bits bound the
/// encoding is checked against (used by fragment chunks, whose content
/// budget is the *logical* payload declaration, not the chunk's).
struct WireCodec {
  std::string name;
  std::function<void(const std::any&, const WireContext&, BitWriter&)> encode;
  std::function<std::any(const WireContext&, BitReader&)> decode;
  std::function<bool(const std::any&, const std::any&)> equal;
  std::function<long(const std::any&, long declared)> budget;
};

/// Registry lookups. Registration normally happens during static
/// initialization of the protocol translation units; lookups return
/// nullptr for unregistered types.
const WireCodec* find_codec(std::type_index type);
const WireCodec* find_codec(const std::any& value);
void register_codec_erased(std::type_index type, WireCodec codec);
/// Sorted names of all registered codecs (diagnostics, dmc --audit).
std::vector<std::string> registered_codec_names();
/// Human-readable name for a payload type: the codec name if registered,
/// else the (demangled when possible) C++ type name.
std::string payload_type_name(const std::any& value);

/// Typed registration helper; `Enc`/`Dec`/`Eq` are any callables with
/// signatures void(const T&, const WireContext&, BitWriter&),
/// T(const WireContext&, BitReader&), bool(const T&, const T&). `Eq`
/// defaults to T's operator==.
template <typename T, typename Enc, typename Dec,
          typename Eq = std::equal_to<T>>
void register_codec(std::string name, Enc enc, Dec dec, Eq eq = {}) {
  WireCodec codec;
  codec.name = std::move(name);
  codec.encode = [enc](const std::any& v, const WireContext& ctx,
                       BitWriter& w) { enc(std::any_cast<const T&>(v), ctx, w); };
  codec.decode = [dec](const WireContext& ctx, BitReader& r) {
    return std::any(dec(ctx, r));
  };
  codec.equal = [eq](const std::any& a, const std::any& b) {
    return eq(std::any_cast<const T&>(a), std::any_cast<const T&>(b));
  };
  register_codec_erased(std::type_index(typeid(T)), std::move(codec));
}

/// True encoded size of a value through its registered codec; throws
/// WireError when the type has no codec. Protocols with composite payloads
/// (tables, bags, edge lists) declare exactly this — measured, not guessed.
long measured_bits(const std::any& value, const WireContext& ctx);

template <typename T>
long measured_bits(const T& value, const WireContext& ctx) {
  return measured_bits(std::any(value), ctx);
}

/// Conformance failure (unregistered payload, under-declared size, or
/// encode/decode round-trip mismatch). what() names the payload type and,
/// for size failures, both the encoded and the declared bit counts.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& msg) : std::runtime_error(msg) {}
};

struct AuditOutcome {
  long encoded_bits = 0;     // true size through the codec
  std::uint64_t content_hash = 0;  // FNV-1a of the encoded bit stream
};

/// Full conformance check of one payload: encode through the registered
/// codec, verify encoded size <= the codec's budget (declared bits unless
/// overridden), decode the encoding, and compare the round trip. Throws
/// WireError on any violation. Fragment chunks (fragment.hpp) are handled
/// structurally: empty chunks cost their flag bit, final chunks audit the
/// carried logical payload against Fragment::logical_bits.
AuditOutcome audit_payload(const std::any& value, long declared_bits,
                           const WireContext& ctx);

/// FNV-1a over a byte range, and a 64-bit mixer for chaining digests.
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size,
                    std::uint64_t seed = 14695981039346656037ull);
std::uint64_t mix64(std::uint64_t a, std::uint64_t b);

}  // namespace dmc::audit
