#include "dist/protocol.hpp"

#include "base/error.hpp"
#include "serial/archive.hpp"

namespace pia::dist {
namespace {

enum class Tag : std::uint8_t {
  kEvent = 1,
  kSafeTimeRequest,
  kSafeTimeGrant,
  kMark,
  kRetract,
  kRunLevel,
  kStatus,
  kProbe,
  kProbeReply,
  kTerminate,
  kHeartbeat,
  kRejoin,
  // 13 and 14 are the batch / replica FRAME tags (kBatchFrameTag,
  // kReplicaFrameTag) — message tags skip them so a frame's first byte
  // stays unambiguous.
  kModeProposal = 15,
  kModeAck,
  kModeCommit,
  kModeResume,
};

void write_send_id(serial::OutArchive& ar, const SendId& id) {
  ar.put_varint(id.origin);
  ar.put_varint(id.counter);
}

SendId read_send_id(serial::InArchive& ar) {
  SendId id;
  id.origin = static_cast<std::uint32_t>(ar.get_varint());
  id.counter = ar.get_varint();
  return id;
}

}  // namespace

Bytes encode_message(const ChannelMessage& message) {
  serial::OutArchive ar;
  encode_message_into(ar, message);
  return std::move(ar).take();
}

void encode_message_into(serial::OutArchive& ar,
                         const ChannelMessage& message) {
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, EventMsg>) {
          ar.put_u8(static_cast<std::uint8_t>(Tag::kEvent));
          write_send_id(ar, m.id);
          ar.put_varint(m.net_index);
          serial::write(ar, m.time);
          m.value.save(ar);
        } else if constexpr (std::is_same_v<T, SafeTimeRequest>) {
          ar.put_u8(static_cast<std::uint8_t>(Tag::kSafeTimeRequest));
          ar.put_varint(m.request_id);
          serial::write(ar, m.need_by);
          ar.put_varint(m.events_seen);
        } else if constexpr (std::is_same_v<T, SafeTimeGrant>) {
          ar.put_u8(static_cast<std::uint8_t>(Tag::kSafeTimeGrant));
          ar.put_varint(m.request_id);
          serial::write(ar, m.safe_time);
          ar.put_varint(m.events_seen);
          serial::write(ar, m.lookahead);
          serial::write(ar, m.need_by);
        } else if constexpr (std::is_same_v<T, MarkMsg>) {
          ar.put_u8(static_cast<std::uint8_t>(Tag::kMark));
          ar.put_varint(m.token);
        } else if constexpr (std::is_same_v<T, RetractMsg>) {
          ar.put_u8(static_cast<std::uint8_t>(Tag::kRetract));
          write_send_id(ar, m.id);
          serial::write(ar, m.time);
        } else if constexpr (std::is_same_v<T, RunLevelMsg>) {
          ar.put_u8(static_cast<std::uint8_t>(Tag::kRunLevel));
          ar.put_string(m.component);
          ar.put_string(m.level_name);
          ar.put_i64(m.detail);
        } else if constexpr (std::is_same_v<T, StatusMsg>) {
          ar.put_u8(static_cast<std::uint8_t>(Tag::kStatus));
          serial::write(ar, m.now);
          ar.put_varint(m.msgs_sent);
          ar.put_varint(m.msgs_received);
          ar.put_bool(m.idle);
        } else if constexpr (std::is_same_v<T, ProbeMsg>) {
          ar.put_u8(static_cast<std::uint8_t>(Tag::kProbe));
          ar.put_varint(m.origin);
          ar.put_varint(m.nonce);
        } else if constexpr (std::is_same_v<T, ProbeReply>) {
          ar.put_u8(static_cast<std::uint8_t>(Tag::kProbeReply));
          ar.put_varint(m.origin);
          ar.put_varint(m.nonce);
          ar.put_bool(m.ok);
          ar.put_varint(m.sent);
          ar.put_varint(m.received);
          ar.put_varint(m.activity);
        } else if constexpr (std::is_same_v<T, TerminateMsg>) {
          ar.put_u8(static_cast<std::uint8_t>(Tag::kTerminate));
          ar.put_varint(m.token);
        } else if constexpr (std::is_same_v<T, HeartbeatMsg>) {
          ar.put_u8(static_cast<std::uint8_t>(Tag::kHeartbeat));
          ar.put_varint(m.seq);
        } else if constexpr (std::is_same_v<T, RejoinMsg>) {
          ar.put_u8(static_cast<std::uint8_t>(Tag::kRejoin));
          ar.put_varint(m.token);
          ar.put_varint(m.events_sent);
          ar.put_varint(m.events_received);
          ar.put_varint(m.protocol);
        } else if constexpr (std::is_same_v<T, ModeProposalMsg>) {
          ar.put_u8(static_cast<std::uint8_t>(Tag::kModeProposal));
          ar.put_varint(m.nonce);
          ar.put_varint(m.epoch);
          ar.put_u8(m.target);
        } else if constexpr (std::is_same_v<T, ModeAckMsg>) {
          ar.put_u8(static_cast<std::uint8_t>(Tag::kModeAck));
          ar.put_varint(m.nonce);
          ar.put_u8(m.phase);
          ar.put_bool(m.accept);
          ar.put_u8(m.reason);
        } else if constexpr (std::is_same_v<T, ModeCommitMsg>) {
          ar.put_u8(static_cast<std::uint8_t>(Tag::kModeCommit));
          ar.put_varint(m.nonce);
          ar.put_varint(m.token);
        } else if constexpr (std::is_same_v<T, ModeResumeMsg>) {
          ar.put_u8(static_cast<std::uint8_t>(Tag::kModeResume));
          ar.put_varint(m.nonce);
        }
      },
      message);
}

ChannelMessage decode_message(BytesView data) {
  serial::InArchive ar(data);
  const auto tag = static_cast<Tag>(ar.get_u8());
  switch (tag) {
    case Tag::kEvent: {
      EventMsg m;
      m.id = read_send_id(ar);
      m.net_index = static_cast<std::uint32_t>(ar.get_varint());
      m.time = serial::read<VirtualTime>(ar);
      m.value = Value::load(ar);
      return m;
    }
    case Tag::kSafeTimeRequest: {
      SafeTimeRequest m;
      m.request_id = ar.get_varint();
      m.need_by = serial::read<VirtualTime>(ar);
      m.events_seen = ar.get_varint();
      return m;
    }
    case Tag::kSafeTimeGrant: {
      SafeTimeGrant m;
      m.request_id = ar.get_varint();
      m.safe_time = serial::read<VirtualTime>(ar);
      m.events_seen = ar.get_varint();
      m.lookahead = serial::read<VirtualTime>(ar);
      m.need_by = serial::read<VirtualTime>(ar);
      return m;
    }
    case Tag::kMark:
      return MarkMsg{.token = ar.get_varint()};
    case Tag::kRetract: {
      RetractMsg m;
      m.id = read_send_id(ar);
      m.time = serial::read<VirtualTime>(ar);
      return m;
    }
    case Tag::kRunLevel: {
      RunLevelMsg m;
      m.component = ar.get_string();
      m.level_name = ar.get_string();
      m.detail = static_cast<std::int32_t>(ar.get_i64());
      return m;
    }
    case Tag::kStatus: {
      StatusMsg m;
      m.now = serial::read<VirtualTime>(ar);
      m.msgs_sent = ar.get_varint();
      m.msgs_received = ar.get_varint();
      m.idle = ar.get_bool();
      return m;
    }
    case Tag::kProbe: {
      ProbeMsg m;
      m.origin = ar.get_varint();
      m.nonce = ar.get_varint();
      return m;
    }
    case Tag::kProbeReply: {
      ProbeReply m;
      m.origin = ar.get_varint();
      m.nonce = ar.get_varint();
      m.ok = ar.get_bool();
      m.sent = ar.get_varint();
      m.received = ar.get_varint();
      m.activity = ar.get_varint();
      return m;
    }
    case Tag::kTerminate:
      return TerminateMsg{.token = ar.get_varint()};
    case Tag::kHeartbeat:
      return HeartbeatMsg{.seq = ar.get_varint()};
    case Tag::kRejoin: {
      RejoinMsg m;
      m.token = ar.get_varint();
      m.events_sent = ar.get_varint();
      m.events_received = ar.get_varint();
      m.protocol = static_cast<std::uint32_t>(ar.get_varint());
      return m;
    }
    case Tag::kModeProposal: {
      ModeProposalMsg m;
      m.nonce = ar.get_varint();
      m.epoch = ar.get_varint();
      m.target = ar.get_u8();
      return m;
    }
    case Tag::kModeAck: {
      ModeAckMsg m;
      m.nonce = ar.get_varint();
      m.phase = ar.get_u8();
      m.accept = ar.get_bool();
      m.reason = ar.get_u8();
      return m;
    }
    case Tag::kModeCommit: {
      ModeCommitMsg m;
      m.nonce = ar.get_varint();
      m.token = ar.get_varint();
      return m;
    }
    case Tag::kModeResume:
      return ModeResumeMsg{.nonce = ar.get_varint()};
  }
  raise(ErrorKind::kProtocol, "unknown channel message tag");
}

void decode_frame(BytesView frame, std::deque<ChannelMessage>& out) {
  if (frame.empty()) raise(ErrorKind::kProtocol, "empty channel frame");
  if (static_cast<std::uint8_t>(frame[0]) != kBatchFrameTag) {
    out.push_back(decode_message(frame));
    return;
  }
  serial::InArchive ar(frame);
  (void)ar.get_u8();  // kBatchFrameTag
  const std::uint64_t count = ar.get_varint();
  for (std::uint64_t i = 0; i < count; ++i)
    out.push_back(decode_message(ar.get_view(ar.get_varint())));
  if (!ar.at_end())
    raise(ErrorKind::kProtocol, "trailing bytes after channel batch");
}

void encode_replica_frame(serial::OutArchive& out, std::uint32_t member,
                          std::uint64_t epoch, BytesView inner) {
  out.put_u8(kReplicaFrameTag);
  out.put_varint(member);
  out.put_varint(epoch);
  out.put_raw(inner);
}

std::optional<std::pair<ReplicaFrameHeader, BytesView>> split_replica_frame(
    BytesView frame) {
  if (frame.empty() ||
      static_cast<std::uint8_t>(frame[0]) != kReplicaFrameTag) {
    return std::nullopt;
  }
  serial::InArchive ar(frame);
  (void)ar.get_u8();  // kReplicaFrameTag
  ReplicaFrameHeader header;
  header.member = static_cast<std::uint32_t>(ar.get_varint());
  header.epoch = ar.get_varint();
  return std::make_pair(header, ar.get_view(ar.remaining()));
}

bool is_control_message(const ChannelMessage& message) {
  return std::holds_alternative<StatusMsg>(message) ||
         std::holds_alternative<ProbeMsg>(message) ||
         std::holds_alternative<ProbeReply>(message) ||
         std::holds_alternative<TerminateMsg>(message) ||
         std::holds_alternative<HeartbeatMsg>(message) ||
         std::holds_alternative<RejoinMsg>(message) ||
         std::holds_alternative<ModeProposalMsg>(message) ||
         std::holds_alternative<ModeAckMsg>(message) ||
         std::holds_alternative<ModeCommitMsg>(message) ||
         std::holds_alternative<ModeResumeMsg>(message);
}

}  // namespace pia::dist
