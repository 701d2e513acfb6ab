// Byte-stream framing shared by the shm and tcp transports
// (docs/TRANSPORT.md "wire format").
//
// A WireFrame serializes as a fixed 48-byte little-endian header followed by
// the raw payload bytes. The header carries exactly the fields the fabric's
// reliability layer needs on the far side — tag, seq, flow id, delivery
// deadline, the nodedup reorder marker — and the payload length.
// `ledger_bytes` never crosses: remote payloads rematerialize as tracked
// buffers, which charge the receiving rank's ledger bucket on allocation.
//
// FrameReader is a pull-style incremental decoder for a nonblocking byte
// source: the owner repeatedly asks where to put the next bytes (dest()),
// reads into it, and commits the count; whenever a frame completes, commit()
// hands it back. Payload bytes land directly in their final Buffer — one
// copy off the wire, no staging.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "comm/transport.hpp"
#include "common/check.hpp"

namespace weipipe::comm {

inline constexpr std::uint32_t kFrameMagic = 0x57504631;  // "WPF1"
inline constexpr std::uint32_t kFrameFlagReordered = 1u << 0;
inline constexpr std::size_t kFrameHeaderBytes = 48;

inline void encode_frame_header(const WireFrame& frame,
                                std::uint8_t out[kFrameHeaderBytes]) {
  const std::uint32_t magic = kFrameMagic;
  const std::uint32_t flags = frame.reordered ? kFrameFlagReordered : 0;
  const std::uint64_t payload_bytes = frame.payload.size();
  std::memcpy(out + 0, &magic, 4);
  std::memcpy(out + 4, &flags, 4);
  std::memcpy(out + 8, &frame.tag, 8);
  std::memcpy(out + 16, &frame.seq, 8);
  std::memcpy(out + 24, &frame.flow_id, 8);
  std::memcpy(out + 32, &frame.deliver_at_ns, 8);
  std::memcpy(out + 40, &payload_bytes, 8);
}

// Decodes a header into `frame` (payload untouched); returns the payload
// length. Throws weipipe::Error on a bad magic — a desynced stream is a
// protocol bug, not a recoverable condition.
inline std::uint64_t decode_frame_header(
    const std::uint8_t in[kFrameHeaderBytes], WireFrame& frame) {
  std::uint32_t magic = 0;
  std::uint32_t flags = 0;
  std::uint64_t payload_bytes = 0;
  std::memcpy(&magic, in + 0, 4);
  std::memcpy(&flags, in + 4, 4);
  std::memcpy(&frame.tag, in + 8, 8);
  std::memcpy(&frame.seq, in + 16, 8);
  std::memcpy(&frame.flow_id, in + 24, 8);
  std::memcpy(&frame.deliver_at_ns, in + 32, 8);
  std::memcpy(&payload_bytes, in + 40, 8);
  WEIPIPE_CHECK_MSG(magic == kFrameMagic,
                    "wire desync: bad frame magic 0x" << std::hex << magic);
  frame.reordered = (flags & kFrameFlagReordered) != 0;
  frame.ledger_bytes = 0;  // never crosses a process boundary
  return payload_bytes;
}

class FrameReader {
 public:
  // Where the next incoming bytes belong and how many fit there.
  std::span<std::uint8_t> dest() {
    if (in_header_) {
      return {header_ + filled_, kFrameHeaderBytes - filled_};
    }
    return {frame_.payload.mutable_data() + filled_, payload_bytes_ - filled_};
  }

  // Accounts `n` bytes just read into dest(). Returns true and moves the
  // completed frame into `out` when one finishes; false = need more bytes.
  bool commit(std::size_t n, WireFrame& out) {
    filled_ += n;
    if (in_header_) {
      if (filled_ < kFrameHeaderBytes) {
        return false;
      }
      payload_bytes_ = decode_frame_header(header_, frame_);
      filled_ = 0;
      in_header_ = false;
      if (payload_bytes_ > 0) {
        // Tracked storage: the receiving rank's thread is the allocator, so
        // the ledger charge lands in the receiver's bucket — the remote
        // analogue of inproc mailbox residency.
        frame_.payload = Buffer::allocate(payload_bytes_);
        return false;
      }
      frame_.payload = Buffer();
    }
    if (filled_ < payload_bytes_) {
      return false;
    }
    out = std::move(frame_);
    frame_ = WireFrame{};
    filled_ = 0;
    payload_bytes_ = 0;
    in_header_ = true;
    return true;
  }

 private:
  bool in_header_ = true;
  std::size_t filled_ = 0;
  std::uint64_t payload_bytes_ = 0;
  std::uint8_t header_[kFrameHeaderBytes] = {};
  WireFrame frame_;
};

}  // namespace weipipe::comm
