#include "dist/replica.hpp"

#include <algorithm>

#include "base/error.hpp"
#include "base/log.hpp"
#include "serial/archive.hpp"

namespace pia::dist {

// ---------------------------------------------------------------------------
// ReplicaDedup
// ---------------------------------------------------------------------------

bool ReplicaDedup::accept(std::size_t member, const ChannelMessage& message) {
  // Simulation-stream class: deterministic across clones, deduplicated by
  // stream position.  A member's position can never exceed the accepted
  // position: accepted tracks the leading member, and each member's cursor
  // only counts its own deliveries.
  if (std::holds_alternative<EventMsg>(message) ||
      std::holds_alternative<RetractMsg>(message) ||
      std::holds_alternative<MarkMsg>(message) ||
      std::holds_alternative<RunLevelMsg>(message)) {
    const std::uint64_t position = sim_seen_.at(member)++;
    if (position != sim_accepted_) return false;
    ++sim_accepted_;
    return true;
  }
  // Probe class: nonces are monotone per origin, so "first copy" is simply
  // "nonce newer than the last accepted".  A duplicate ProbeMsg would
  // double-decrement the origin's pending count and corrupt the Safra sums.
  if (const auto* probe = std::get_if<ProbeMsg>(&message)) {
    auto [it, inserted] = probe_accepted_.try_emplace(probe->origin,
                                                      probe->nonce);
    if (!inserted) {
      if (probe->nonce <= it->second) return false;
      it->second = probe->nonce;
    }
    return true;
  }
  // Probe replies are AND-gathered, not first-copy-wins: the logical peer
  // is idle only when every live clone is.  A busy clone fails the round
  // immediately; an all-ok round emits on the last live clone's copy (the
  // copies are identical by determinism, so any one is representative).
  if (const auto* reply = std::get_if<ProbeReply>(&message)) {
    if (const auto acc = reply_accepted_.find(reply->origin);
        acc != reply_accepted_.end() && reply->nonce <= acc->second) {
      return false;  // residue of an already-answered round
    }
    ReplyGather& gather =
        reply_gather_[std::make_pair(reply->origin, reply->nonce)];
    if (gather.expected.empty()) {
      gather.expected = live_;
      gather.seen.assign(live_.size(), false);
    }
    if (member < gather.seen.size()) gather.seen[member] = true;
    if (!reply->ok) {
      reply_accepted_[reply->origin] = reply->nonce;
      reply_gather_.erase(std::make_pair(reply->origin, reply->nonce));
      return true;  // fail fast: one busy clone fails the logical round
    }
    for (std::size_t m = 0; m < gather.expected.size(); ++m) {
      if (gather.expected[m] && !gather.seen[m]) {
        gather.ok_copy = message;  // keep a copy for death completion
        return false;              // still waiting on a sibling clone
      }
    }
    reply_accepted_[reply->origin] = reply->nonce;
    reply_gather_.erase(std::make_pair(reply->origin, reply->nonce));
    return true;
  }
  // Everything else (grants, requests, status, heartbeats, terminate,
  // rejoin) is an idempotent or last-wins state report: deliver every copy.
  return true;
}

std::vector<ChannelMessage> ReplicaDedup::note_member_dead(
    std::size_t member) {
  if (member < live_.size()) live_[member] = false;
  std::vector<ChannelMessage> completed;
  for (auto it = reply_gather_.begin(); it != reply_gather_.end();) {
    ReplyGather& gather = it->second;
    if (member < gather.expected.size()) gather.expected[member] = false;
    bool complete = gather.ok_copy.has_value();
    for (std::size_t m = 0; complete && m < gather.expected.size(); ++m) {
      if (gather.expected[m] && !gather.seen[m]) complete = false;
    }
    if (complete) {
      reply_accepted_[it->first.first] = it->first.second;
      completed.push_back(std::move(*gather.ok_copy));
      it = reply_gather_.erase(it);
    } else {
      ++it;
    }
  }
  return completed;
}

// ---------------------------------------------------------------------------
// ReplicaTagLink
// ---------------------------------------------------------------------------

void ReplicaTagLink::send(BytesView frame, std::uint32_t message_count) {
  // One scratch archive per member thread; the header adds ~4 bytes.
  thread_local serial::OutArchive scratch;
  scratch.clear();
  encode_replica_frame(scratch, member_, epoch_, frame);
  inner_->send(scratch.bytes(), message_count);
}

std::string ReplicaTagLink::describe() const {
  return "replica-tag(m" + std::to_string(member_) + "e" +
         std::to_string(epoch_) + ", " + inner_->describe() + ")";
}

// ---------------------------------------------------------------------------
// ReplicaLinkGroup
// ---------------------------------------------------------------------------

std::size_t ReplicaLinkGroup::add_member(transport::LinkPtr link) {
  PIA_REQUIRE(link != nullptr, "replica member with a null link");
  members_.push_back(Member{.link = std::move(link)});
  dedup_.add_member();
  if (signal_) members_.back().link->set_ready_signal(signal_);
  return members_.size() - 1;
}

void ReplicaLinkGroup::reattach_member(std::size_t member,
                                       transport::LinkPtr link) {
  PIA_REQUIRE(link != nullptr, "reattach with a null link");
  Member& mem = members_.at(member);
  PIA_REQUIRE(!mem.alive, "reattach over a live member of replica group '" +
                              name_ + "'");
  mem.link = std::move(link);
  ++mem.epoch;
  mem.alive = true;
  dedup_.rebase_member(member);
  if (signal_) {
    mem.link->set_ready_signal(signal_);
    // Frames the fresh link queued before it had the signal raised none.
    signal_->notify();
  }
}

void ReplicaLinkGroup::settle_member_death(std::size_t member) {
  for (ChannelMessage& message : dedup_.note_member_dead(member)) {
    serial::OutArchive out;
    encode_message_into(out, message);
    pending_out_.push_back(std::move(out).take());
    ++gstats_.messages_accepted;
  }
  // The released replies arrive outside any link's receive path: pulse the
  // shared signal so an endpoint idling in its channel wait re-inspects.
  if (!pending_out_.empty() && signal_) signal_->notify();
}

std::size_t ReplicaLinkGroup::live_count() const {
  std::size_t live = 0;
  for (const Member& m : members_)
    if (m.alive) ++live;
  return live;
}

void ReplicaLinkGroup::drop_member(std::size_t member) {
  Member& mem = members_[member];
  if (!mem.alive) return;
  PIA_DEBUG("replica group '" << name_ << "': drop member " << member);
  mem.alive = false;
  mem.link->close();
  ++gstats_.members_dropped;
  if (live_count() > 0) {
    // Zero-rollback promotion: the survivors' streams simply continue from
    // the accepted position.  Stamp detection time so the next delivered
    // frame can report the failover latency.
    ++gstats_.promotions;
    death_detected_ = std::chrono::steady_clock::now();
  }
  settle_member_death(member);
  if (death_callback_) death_callback_(member);
}

void ReplicaLinkGroup::send(BytesView frame, std::uint32_t message_count) {
  bool delivered = false;
  for (std::size_t m = 0; m < members_.size(); ++m) {
    if (!members_[m].alive) continue;
    try {
      members_[m].link->send(frame, message_count);
      ++gstats_.frames_fanned_out;
      delivered = true;
    } catch (const Error& e) {
      if (e.kind() != ErrorKind::kTransport) throw;
      drop_member(m);
    }
  }
  if (!delivered) {
    raise(ErrorKind::kTransport,
          "replica group '" + name_ + "': all members down");
  }
}

std::optional<Bytes> ReplicaLinkGroup::process_frame(std::size_t member,
                                                     BytesView frame) {
  const auto split = split_replica_frame(frame);
  if (!split) {
    raise(ErrorKind::kProtocol,
          "untagged frame from a member of replica group '" + name_ + "'");
  }
  const ReplicaFrameHeader& header = split->first;
  if (header.member != member) {
    raise(ErrorKind::kProtocol,
          "replica frame attributed to member " +
              std::to_string(header.member) + " arrived on sub-link " +
              std::to_string(member) + " of group '" + name_ + "'");
  }
  if (header.epoch != members_[member].epoch) {
    ++gstats_.stale_epoch_frames;  // wire residue from a replaced clone
    return std::nullopt;
  }
  std::deque<ChannelMessage> decoded;
  decode_frame(split->second, decoded);
  std::vector<ChannelMessage> accepted;
  accepted.reserve(decoded.size());
  for (ChannelMessage& message : decoded) {
    if (dedup_.accept(member, message)) {
      ++gstats_.messages_accepted;
      accepted.push_back(std::move(message));
    } else {
      ++gstats_.duplicates_dropped;
    }
  }
  if (accepted.empty()) return std::nullopt;
  // Re-encode the survivors as one frame in the standard wire format (bare
  // message or batch) so the endpoint above decodes it like any other.
  serial::OutArchive out;
  if (accepted.size() == 1) {
    encode_message_into(out, accepted.front());
  } else {
    thread_local serial::OutArchive message_scratch;
    out.put_u8(kBatchFrameTag);
    out.put_varint(accepted.size());
    for (const ChannelMessage& message : accepted) {
      message_scratch.clear();
      encode_message_into(message_scratch, message);
      out.put_varint(message_scratch.size());
      out.put_raw(message_scratch.bytes());
    }
  }
  return std::move(out).take();
}

std::optional<Bytes> ReplicaLinkGroup::handle_raw(std::size_t member,
                                                  BytesView raw) {
  ++gstats_.frames_received;
  auto out = process_frame(member, raw);
  if (out) {
    rr_ = (member + 1) % members_.size();
    if (death_detected_) {
      gstats_.last_failover_micros = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - *death_detected_)
              .count());
      death_detected_.reset();
    }
  }
  return out;
}

std::optional<Bytes> ReplicaLinkGroup::try_recv() {
  if (!pending_out_.empty()) {
    Bytes out = std::move(pending_out_.front());
    pending_out_.pop_front();
    return out;
  }
  const std::size_t n = members_.size();
  if (n == 0) return std::nullopt;
  // Keep pulling while members have frames: a frame whose messages were all
  // duplicates must not stall delivery of the next one behind it.
  for (;;) {
    bool any_frame = false;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t m = (rr_ + i) % n;
      Member& mem = members_[m];
      if (!mem.alive) continue;
      std::optional<Bytes> raw;
      try {
        raw = mem.link->try_recv();
      } catch (const Error& e) {
        if (e.kind() != ErrorKind::kTransport) throw;
        drop_member(m);
        continue;
      }
      if (!raw) {
        if (mem.link->closed()) drop_member(m);
        continue;
      }
      any_frame = true;
      if (auto out = handle_raw(m, *raw)) return out;
    }
    if (!any_frame) return std::nullopt;
  }
}

std::optional<Bytes> ReplicaLinkGroup::recv_for(
    std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    if (auto out = try_recv()) return out;
    if (closed()) return std::nullopt;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return std::nullopt;
    // Block briefly on the first live member; arrivals on the others are
    // picked up by the try_recv pass at the top of the loop, so the worst
    // case is one slice of extra latency.
    const auto slice = std::max(
        std::chrono::milliseconds(1),
        std::min(std::chrono::duration_cast<std::chrono::milliseconds>(
                     deadline - now),
                 std::chrono::milliseconds(5)));
    for (std::size_t m = 0; m < members_.size(); ++m) {
      Member& mem = members_[m];
      if (!mem.alive) continue;
      std::optional<Bytes> raw;
      try {
        raw = mem.link->recv_for(slice);
      } catch (const Error& e) {
        if (e.kind() != ErrorKind::kTransport) throw;
        drop_member(m);
        break;
      }
      if (raw) {
        if (auto out = handle_raw(m, *raw)) return out;
      } else if (mem.link->closed()) {
        drop_member(m);
      }
      break;
    }
  }
}

void ReplicaLinkGroup::close() {
  PIA_DEBUG("replica group '" << name_ << "': close()");
  for (Member& mem : members_) {
    mem.link->close();
    mem.alive = false;
  }
}

transport::LinkStats ReplicaLinkGroup::stats() const {
  transport::LinkStats total;
  for (const Member& mem : members_) {
    const transport::LinkStats s = mem.link->stats();
    total.messages_sent += s.messages_sent;
    total.messages_received += s.messages_received;
    total.frames_sent += s.frames_sent;
    total.frames_received += s.frames_received;
    total.bytes_sent += s.bytes_sent;
    total.bytes_received += s.bytes_received;
    total.faults_delayed += s.faults_delayed;
    total.faults_duplicated += s.faults_duplicated;
    total.faults_dropped += s.faults_dropped;
    total.faults_dup_discarded += s.faults_dup_discarded;
    total.faults_partition_held += s.faults_partition_held;
    total.faults_abrupt_closes += s.faults_abrupt_closes;
  }
  return total;
}

std::string ReplicaLinkGroup::describe() const {
  return "replica-group(" + name_ + ", " + std::to_string(live_count()) +
         "/" + std::to_string(members_.size()) + " live)";
}

void ReplicaLinkGroup::set_ready_signal(transport::ReadySignalPtr signal) {
  signal_ = std::move(signal);
  for (Member& mem : members_) mem.link->set_ready_signal(signal_);
}

void ReplicaLinkGroup::poll_fds(std::vector<pollfd>& fds) const {
  for (const Member& mem : members_)
    if (mem.alive) mem.link->poll_fds(fds);
}

std::optional<std::chrono::steady_clock::time_point>
ReplicaLinkGroup::next_ready_time() const {
  std::optional<std::chrono::steady_clock::time_point> earliest;
  for (const Member& mem : members_) {
    if (!mem.alive) continue;
    const auto t = mem.link->next_ready_time();
    if (t && (!earliest || *t < *earliest)) earliest = t;
  }
  return earliest;
}

// ---------------------------------------------------------------------------
// ReplicaSet
// ---------------------------------------------------------------------------

namespace {

void require_anti_affine(const Subsystem& candidate,
                         const std::vector<Subsystem*>& members,
                         const Subsystem* peer, const std::string& set_name) {
  // Host nodes may be null for free-standing subsystems (unit tests); the
  // check only bites where placement is actually known.
  if (candidate.host_node() == nullptr) return;
  for (const Subsystem* other : members) {
    if (other == &candidate) continue;
    PIA_CHECK(candidate.host_node() != other->host_node(),
              "replica set '" + set_name + "': members '" + candidate.name() +
                  "' and '" + other->name() +
                  "' share a host node — co-located replicas die together");
  }
  if (peer != nullptr) {
    PIA_CHECK(candidate.host_node() != peer->host_node(),
              "replica set '" + set_name + "': member '" + candidate.name() +
                  "' is co-located with its peer '" + peer->name() + "'");
  }
}

}  // namespace

void ReplicaSet::add_member(Subsystem& member) {
  PIA_REQUIRE(group_ == nullptr,
              "add_member after connect on replica set '" + name_ + "'");
  member.set_replica_member(true);
  members_.push_back(&member);
}

ReplicaSet::Channel ReplicaSet::connect(
    Subsystem& peer, ChannelMode mode, Wire wire,
    transport::LatencyModel latency,
    std::vector<transport::FaultPlan> member_faults) {
  PIA_REQUIRE(group_ == nullptr, "replica set '" + name_ +
                                     "' carries exactly one logical channel "
                                     "(replicated subsystems are leaves)");
  PIA_REQUIRE(!members_.empty(),
              "connect on empty replica set '" + name_ + "'");
  PIA_REQUIRE(mode == ChannelMode::kConservative,
              "functional replication requires conservative channels: "
              "optimistic retraction streams are wall-clock dependent and "
              "diverge across clones");
  for (Subsystem* member : members_)
    require_anti_affine(*member, members_, &peer, name_);

  auto group = std::make_unique<ReplicaLinkGroup>(name_);
  group_ = group.get();
  const std::string channel_name = peer.name() + "<->" + name_;
  Channel channel;
  for (std::size_t k = 0; k < members_.size(); ++k) {
    transport::LinkPair pair = decorate_pair(
        make_wire_pair(wire), latency,
        k < member_faults.size() ? member_faults[k] : transport::FaultPlan{});
    const std::size_t slot = group_->add_member(std::move(pair.a));
    auto tagged = std::make_unique<ReplicaTagLink>(
        std::move(pair.b), static_cast<std::uint32_t>(slot),
        group_->member_epoch(slot));
    channel.members.push_back(
        members_[k]->add_channel(channel_name, mode, std::move(tagged)));
  }
  // A dead member must stop dragging GVT: retire it from the cluster min.
  group_->set_death_callback(
      [this](std::size_t m) { members_.at(m)->set_retired(); });
  channel.peer = peer.add_channel(channel_name, mode, std::move(group));
  return channel;
}

void ReplicaSet::export_net(Subsystem& peer, const Channel& channel,
                            NetId peer_net, NetId member_net) {
  const std::uint32_t index = peer.export_net(channel.peer, peer_net);
  for (std::size_t k = 0; k < members_.size(); ++k) {
    const std::uint32_t member_index =
        members_[k]->export_net(channel.members[k], member_net);
    PIA_CHECK(member_index == index,
              "split-net registration order differs between '" + peer.name() +
                  "' and replica '" + members_[k]->name() + "'");
  }
}

ReplicaLinkGroup& ReplicaSet::group() {
  PIA_REQUIRE(group_ != nullptr,
              "replica set '" + name_ + "' is not connected yet");
  return *group_;
}

std::size_t ReplicaSet::live_members() const {
  return group_ == nullptr ? members_.size() : group_->live_count();
}

ReplicaSet::Channel connect_replicated_checked(
    NodeCluster& cluster, Subsystem& peer, ReplicaSet& set, ChannelMode mode,
    Wire wire, transport::LatencyModel latency,
    std::vector<transport::FaultPlan> member_faults) {
  cluster.register_logical_channel(peer.name(), set.name());
  return set.connect(peer, mode, wire, latency, std::move(member_faults));
}

}  // namespace pia::dist
