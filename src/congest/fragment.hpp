// Fragmentation of large logical messages over the CONGEST bandwidth.
//
// A k-bit logical payload costs ceil(k / B) rounds on one edge (the paper's
// Theta(k / log n) remark). The simulator transfers C++ values, so
// fragmentation is modeled: the sender emits ceil(k / (B - header)) chunk
// messages of which only the last carries the value; the receiver exposes
// the value when the final chunk arrives. Chunks on one port are delivered
// in order, one per round.
#pragma once

#include <algorithm>
#include <any>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "congest/network.hpp"

namespace dmc::congest {

/// Chunk wire format. The sequencing fields ride inside the declared
/// kHeaderBits chunk header (message sequence within a sliding window,
/// chunk index, chunk count) — they are what makes reassembly robust to
/// the duplicated and reordered deliveries a faulty transport can produce
/// (faults.hpp).
struct Fragment {
  std::any value;  // engaged only on the final chunk
  /// Declared size of the whole logical payload (the `bits` passed to
  /// FragmentSender::enqueue). The audit layer checks the carried value's
  /// true encoded size against this — the chunk stream was budgeted from
  /// it — rather than against the final chunk's own declared bits.
  long logical_bits = 0;
  /// Per-(sender, port) logical message sequence number.
  std::uint32_t msg_seq = 0;
  int chunk = 0;        // chunk index within the message
  int num_chunks = 1;   // total chunks of the message
};

/// Sender side: queue logical payloads per port, pump one chunk per round.
class FragmentSender {
 public:
  /// Per-chunk framing overhead (sequencing / last-chunk marker).
  static constexpr int kHeaderBits = 8;

  /// Queues a logical payload of `bits` bits for `port`. Queues are indexed
  /// by port; an empty one allocates nothing, so ports never queued on cost
  /// only their (empty) slot.
  void enqueue(int port, std::any value, long bits) {
    if (bits <= 0) bits = 1;
    if (static_cast<std::size_t>(port) >= ports_.size())
      ports_.resize(port + 1);
    PortQueue& q = ports_[port];
    q.fifo.push_back(Pending{std::move(value), bits, bits, q.next_seq++, 0});
    ++queued_;
  }

  bool idle() const { return queued_ == 0; }

  /// Sends at most one chunk per queued port; call once per round. Every
  /// chunk must make real payload progress, so the bandwidth has to exceed
  /// the chunk header — otherwise the ceil(k / (B - header)) round
  /// accounting would silently degrade to meaningless 1-bit chunks.
  void pump(NodeCtx& ctx) {
    if (ctx.bandwidth() <= kHeaderBits)
      throw std::logic_error(
          "FragmentSender::pump: bandwidth (" +
          std::to_string(ctx.bandwidth()) + " bits) must exceed the " +
          std::to_string(kHeaderBits) +
          "-bit chunk header; raise NetworkConfig::min_bandwidth");
    const int payload_budget = ctx.bandwidth() - kHeaderBits;
    for (int port = 0; port < static_cast<int>(ports_.size()); ++port) {
      PortQueue& q = ports_[port];
      if (q.head == q.fifo.size()) continue;
      Pending& p = q.fifo[q.head];
      const long chunk_bits = std::min<long>(p.bits_left, payload_budget);
      p.bits_left -= chunk_bits;
      Fragment frag;
      frag.logical_bits = p.total_bits;
      frag.msg_seq = p.msg_seq;
      frag.chunk = p.chunks_sent++;
      frag.num_chunks = static_cast<int>((p.total_bits + payload_budget - 1) /
                                         payload_budget);
      if (p.bits_left <= 0) frag.value = std::move(p.value);
      ctx.send(port, Message(std::move(frag),
                             static_cast<int>(chunk_bits) + kHeaderBits));
      if (p.bits_left > 0) continue;
      --queued_;
      if (++q.head == q.fifo.size()) {  // drained: keep the capacity
        q.fifo.clear();
        q.head = 0;
      }
    }
  }

 private:
  struct Pending {
    std::any value;
    long bits_left = 0;
    long total_bits = 0;
    std::uint32_t msg_seq = 0;
    int chunks_sent = 0;
  };
  /// One port's FIFO: fifo[head..] are unsent, in enqueue order.
  struct PortQueue {
    std::uint32_t next_seq = 0;  // msg_seq of the next enqueue
    std::size_t head = 0;
    std::vector<Pending> fifo;
  };
  std::vector<PortQueue> ports_;  // indexed by port
  std::size_t queued_ = 0;        // payloads not fully sent, all ports
};

/// Polls the message on `port` this round for a completed logical payload.
/// Only sound on a perfect (in-order, exactly-once) network: a duplicated
/// final chunk would surface the payload twice, a lost interior chunk goes
/// unnoticed. Protocol code uses FragmentReassembler, which is robust to
/// both; this helper remains for unit tests of the perfect path.
inline std::optional<std::any> poll_fragment(NodeCtx& ctx, int port) {
  const Message* msg = ctx.recv(port);
  if (msg == nullptr) return std::nullopt;
  const Fragment* frag = std::any_cast<Fragment>(&msg->value);
  if (frag == nullptr || !frag->value.has_value()) return std::nullopt;
  return frag->value;
}

/// Receiver-side reassembly hardened against faulty delivery: chunk
/// insertion is idempotent (keyed by message sequence number and chunk
/// index, so duplicates are absorbed), chunks may arrive in any order, and
/// completed messages are surfaced exactly once, in sequence order — at
/// most one per poll, matching the one-logical-message-per-round cadence
/// of the perfect path. Messages whose chunks never all arrive (raw lossy
/// transport) are simply never surfaced; under the reliable transport
/// every message completes.
class FragmentReassembler {
 public:
  /// Examines this round's message on `port`; returns a completed logical
  /// payload when one is deliverable in order. Call once per round per
  /// port (like poll_fragment).
  std::optional<std::any> poll(NodeCtx& ctx, int port) {
    if (port >= static_cast<int>(ports_.size())) ports_.resize(port + 1);
    PortState& state = ports_[port];
    const Message* msg = ctx.recv(port);
    if (msg != nullptr) {
      const Fragment* frag = std::any_cast<Fragment>(&msg->value);
      if (frag != nullptr) absorb(state, *frag);
    }
    ctx.note_reassembly_depth(
        static_cast<int>(state.partials.size() + state.ready.size()));
    // Surface the next in-sequence completed message, if any.
    for (std::size_t i = 0; i < state.ready.size(); ++i) {
      if (state.ready[i].seq != state.next_deliver) continue;
      std::any value = std::move(state.ready[i].value);
      state.ready.erase(state.ready.begin() + i);
      state.next_deliver += 1;
      return value;
    }
    return std::nullopt;
  }

 private:
  /// Chunk bookkeeping of one message. Up to 64 chunks fit the inline
  /// mask, so a typical message allocates nothing for it; wider messages
  /// keep one bit per chunk in `wide`.
  struct Partial {
    std::uint32_t seq = 0;
    int num_chunks = 1;
    int have_count = 0;
    std::uint64_t mask = 0;
    std::vector<std::uint64_t> wide;
    std::any value;

    /// Records chunk `c`; false when it was already recorded.
    bool mark(int c) {
      std::uint64_t& word = num_chunks <= 64 ? mask : wide[c / 64];
      const std::uint64_t bit = std::uint64_t{1} << (c % 64);
      if (word & bit) return false;
      word |= bit;
      ++have_count;
      return true;
    }
  };
  struct Ready {
    std::uint32_t seq = 0;
    std::any value;
  };
  struct PortState {
    std::uint32_t next_deliver = 0;  // next msg_seq to surface
    std::vector<Partial> partials;
    std::vector<Ready> ready;
  };

  void absorb(PortState& state, const Fragment& frag) {
    if (frag.msg_seq < state.next_deliver) return;  // stale duplicate
    for (const Ready& r : state.ready)
      if (r.seq == frag.msg_seq) return;  // completed, awaiting delivery
    Partial* partial = nullptr;
    for (Partial& p : state.partials)
      if (p.seq == frag.msg_seq) partial = &p;
    if (partial == nullptr) {
      state.partials.push_back(Partial{});
      partial = &state.partials.back();
      partial->seq = frag.msg_seq;
      partial->num_chunks = std::max(frag.num_chunks, 1);
      if (partial->num_chunks > 64)
        partial->wide.assign((partial->num_chunks + 63) / 64, 0);
    }
    if (frag.chunk < 0 || frag.chunk >= partial->num_chunks)
      return;  // malformed header (e.g. forged under corruption): ignore
    if (!partial->mark(frag.chunk)) return;  // duplicate chunk: idempotent
    if (frag.value.has_value() && !partial->value.has_value())
      partial->value = frag.value;
    if (partial->have_count == partial->num_chunks) {
      Ready done;
      done.seq = partial->seq;
      done.value = std::move(partial->value);
      for (std::size_t i = 0; i < state.partials.size(); ++i)
        if (state.partials[i].seq == done.seq) {
          state.partials.erase(state.partials.begin() + i);
          break;
        }
      state.ready.push_back(std::move(done));
    }
  }

  std::vector<PortState> ports_;
};

}  // namespace dmc::congest
