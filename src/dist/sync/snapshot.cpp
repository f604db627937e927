#include "dist/sync/snapshot.hpp"

#include <algorithm>

#include "base/error.hpp"
#include "base/log.hpp"
#include "serial/archive.hpp"

namespace pia::dist::sync {

namespace {

// The durable image format; only this version is written or read.
constexpr std::string_view kImageSection = "pia.dist.recovery";
constexpr std::uint32_t kImageVersion = 3;

// One channel record of the image: an output- or input-log entry, or a
// recorded in-flight event (which carries no retraction flag).
template <typename Record>
void put_records(serial::OutArchive& ar, const std::vector<Record>& records,
                 std::size_t count) {
  ar.put_varint(count);
  for (std::size_t k = 0; k < count; ++k) {
    const Record& r = records[k];
    ar.put_varint(r.id.origin);
    ar.put_varint(r.id.counter);
    ar.put_varint(r.net_index);
    serial::write(ar, r.time);
    r.value.save(ar);
    if constexpr (requires { r.retracted; }) ar.put_bool(r.retracted);
  }
}

template <typename Record>
std::vector<Record> get_records(serial::InArchive& ar) {
  const std::uint64_t count = ar.get_varint();
  // Every record takes at least one byte: a larger count is corruption,
  // not an allocation to attempt.
  if (count > ar.remaining())
    raise(ErrorKind::kSerialization, "recovery image record count overflow");
  std::vector<Record> records(count);
  for (Record& r : records) {
    r.id.origin = static_cast<std::uint32_t>(ar.get_varint());
    r.id.counter = ar.get_varint();
    r.net_index = static_cast<std::uint32_t>(ar.get_varint());
    r.time = serial::read<VirtualTime>(ar);
    r.value = Value::load(ar);
    if constexpr (requires { r.retracted; }) r.retracted = ar.get_bool();
  }
  return records;
}

}  // namespace

void SnapshotCoordinator::on_dispatch() {
  if (auto_snapshot_interval_ > 0 &&
      ++dispatches_since_auto_snapshot_ >= auto_snapshot_interval_) {
    dispatches_since_auto_snapshot_ = 0;
    initiate();
  }
}

std::uint64_t SnapshotCoordinator::initiate() {
  const std::uint64_t token =
      (static_cast<std::uint64_t>(ctx_.subsystem_id()) << 32) |
      next_cl_token_++;
  PIA_OBS_TRACE(ctx_.scheduler().trace(), obs::TraceKind::kMark,
                ctx_.scheduler().now(), token, /*initiated=*/1);
  cl_snapshots_.emplace(token, checkpoint_cut());
  for (auto& c : ctx_.channels()) c->send_message(MarkMsg{.token = token});
  maybe_persist(token);  // complete immediately when channel-less
  return token;
}

void SnapshotCoordinator::on_mark(ChannelId channel_id, const MarkMsg& mark) {
  ctx_.stats().marks_received++;
  PIA_OBS_TRACE(ctx_.scheduler().trace(), obs::TraceKind::kMark,
                ctx_.scheduler().now(), mark.token, /*initiated=*/0);
  auto it = cl_snapshots_.find(mark.token);
  if (it == cl_snapshots_.end()) {
    // First sight of this snapshot: checkpoint immediately, BEFORE
    // receiving anything else, then relay marks (paper §2.2.5).
    PendingSnapshot pending = checkpoint_cut();
    // The arrival channel's state is empty: everything the peer sent before
    // its mark was already consumed (FIFO).
    pending.mark_pending[channel_id.value()] = false;
    it = cl_snapshots_.emplace(mark.token, std::move(pending)).first;
    for (auto& c : ctx_.channels())
      c->send_message(MarkMsg{.token = mark.token});
  } else {
    it->second.mark_pending[channel_id.value()] = false;
  }
  maybe_persist(mark.token);
}

void SnapshotCoordinator::on_event_received(ChannelId channel_id,
                                            const EventMsg& event) {
  for (auto& [token, pending] : cl_snapshots_) {
    if (pending.mark_pending[channel_id.value()])
      pending.recorded[channel_id.value()].push_back(event);
  }
}

bool SnapshotCoordinator::complete(std::uint64_t token) const {
  const auto it = cl_snapshots_.find(token);
  if (it == cl_snapshots_.end()) return false;
  return std::none_of(it->second.mark_pending.begin(),
                      it->second.mark_pending.end(),
                      [](bool pending) { return pending; });
}

void SnapshotCoordinator::restore(std::uint64_t token) {
  const auto it = cl_snapshots_.find(token);
  PIA_REQUIRE(it != cl_snapshots_.end(), "unknown snapshot token");
  PIA_REQUIRE(complete(token),
              "restore of an incomplete distributed snapshot");
  const PendingSnapshot& pending = it->second;

  ctx_.checkpoints().restore(pending.local);
  ctx_.scrub_retracted(pending.positions);
  ctx_.reset_checkpoint_cadence();
  // The subsystem is live again: any previous termination consensus or
  // probe state described the discarded timeline.
  ctx_.reset_termination();
  ctx_.note_activity();
  ChannelSet& channels = ctx_.channels();
  // Anything still sitting in the links (stale grants, probe replies,
  // statuses from the abandoned timeline) must not leak into the replay.
  // Coordinated restores happen at global quiescence with no runner
  // active, so whatever is pending is stale by definition.
  for (auto& c : channels) {
    while (c->link().try_recv()) {
    }
    // ... including anything buffered inside the endpoint itself: an
    // un-flushed outbound batch or decoded-but-undelivered inbound messages.
    c->discard_pending();
  }
  ctx_.drop_positions_after(pending.local);

  for (std::uint32_t i = 0; i < channels.size(); ++i) {
    ChannelEndpoint& c = channels[i];
    // The cut is a mode barrier: a mode flip negotiated after it belongs to
    // the discarded timeline, so adopt the mode (and epoch, verbatim — both
    // sides restore from the same cut, keeping the endpoints' fences equal)
    // that was live when the cut's checkpoint was taken.
    c.restore_mode(pending.modes[i], pending.mode_epochs[i]);
    // Conservative promises describe the discarded future: re-negotiate.
    c.reset_grants();
    // Each side forgets the status the other announced: announce afresh.
    c.peer_status_seen = false;
    c.msgs_sent_at_last_status_push = UINT64_MAX;
    c.msgs_received_at_last_status_push = UINT64_MAX;
    c.idle_at_last_status_push = false;
    // Restart liveness from scratch: the peer may be mid-restart and the
    // old timers describe the abandoned timeline.
    c.peer_down = false;
    c.liveness_armed = false;
    // Sends and arrivals after the cut never happened, globally: peers are
    // being restored to states from before those sends.
    c.output_log.resize(
        std::min(c.output_log.size(), pending.positions.out[i]));
    c.replay_cursor =
        std::min(pending.positions.cursor[i], c.output_log.size());
    c.input_log.resize(std::min(c.input_log.size(), pending.positions.in[i]));
    c.injected_count = c.input_log.size();
    // The recorded channel state — messages in flight at the cut — is
    // re-delivered.
    for (const EventMsg& event : pending.recorded[i]) {
      c.input_log.push_back(ChannelEndpoint::InputRecord{
          .id = event.id,
          .net_index = event.net_index,
          .time = event.time,
          .value = event.value});
      ctx_.inject_input(c, c.input_log.back());
      c.injected_count = c.input_log.size();
    }
    // Re-base the event counters on the truncated logs so safe-time grants
    // index consistently on both sides after the restore; retract counters
    // restart at zero on both sides of the cut (they only feed the
    // termination balance, which needs a shared epoch, not history).
    c.event_msgs_sent = c.output_trimmed + c.output_log.size();
    c.event_msgs_received = c.input_trimmed + c.input_log.size();
    c.retract_msgs_sent = 0;
    c.retract_msgs_received = 0;
  }
}

Bytes SnapshotCoordinator::export_image(std::uint64_t token) const {
  const auto it = cl_snapshots_.find(token);
  PIA_REQUIRE(it != cl_snapshots_.end(), "unknown snapshot token");
  PIA_REQUIRE(complete(token),
              "export of an incomplete distributed snapshot");
  const PendingSnapshot& pending = it->second;
  const CheckpointManager& checkpoints = ctx_.checkpoints();
  const Scheduler& scheduler = ctx_.scheduler();
  const ChannelSet& channels = ctx_.channels();
  PIA_REQUIRE(checkpoints.contains(pending.local),
              "snapshot's local checkpoint was discarded on " +
                  ctx_.subsystem_name());

  serial::OutArchive ar;
  serial::begin_section(ar, kImageSection, kImageVersion);
  ar.put_string(ctx_.subsystem_name());
  ar.put_varint(token);
  ar.put_varint(next_cl_token_);
  serial::write(ar, checkpoints.snapshot_time(pending.local));

  // Component images, matched by name at restore (ids are assigned in
  // construction order, but names make wiring mismatches loud).
  const std::vector<ComponentId> comps = scheduler.component_ids();
  ar.put_varint(comps.size());
  for (const ComponentId comp : comps) {
    ar.put_string(scheduler.component(comp).name());
    ar.put_bytes(checkpoints.snapshot_image(pending.local, comp));
  }

  // The event queue at the cut, original seqs included: replace_queue
  // raises the restoring scheduler's counter past them so replayed
  // injections keep sorting after the restored events.
  const std::vector<Event> events = checkpoints.snapshot_events(pending.local);
  ar.put_varint(events.size());
  for (const Event& e : events) e.save(ar);

  ar.put_varint(channels.size());
  for (std::uint32_t i = 0; i < channels.size(); ++i) {
    const ChannelEndpoint& c = channels[i];
    ar.put_string(c.name());
    ar.put_u8(static_cast<std::uint8_t>(pending.modes[i]));
    ar.put_varint(pending.mode_epochs[i]);
    const std::size_t out =
        std::min(pending.positions.out[i], c.output_log.size());
    put_records(ar, c.output_log, out);
    put_records(ar, c.input_log,
                std::min(pending.positions.in[i], c.input_log.size()));
    ar.put_varint(std::min(pending.positions.cursor[i], out));
    ar.put_varint(c.output_trimmed);
    ar.put_varint(c.input_trimmed);
    ar.put_varint(c.send_counter());
    // The channel state proper: events in flight at the cut.
    put_records(ar, pending.recorded[i], pending.recorded[i].size());
  }
  return std::move(ar).take();
}

void SnapshotCoordinator::restore_image(BytesView image) {
  serial::InArchive ar(image);
  const std::uint32_t version = serial::expect_section(ar, kImageSection);
  if (version != kImageVersion)
    raise(ErrorKind::kSerialization,
          "unsupported recovery image version " + std::to_string(version));
  const std::string owner = ar.get_string();
  if (owner != ctx_.subsystem_name())
    raise(ErrorKind::kState, "recovery image belongs to subsystem '" + owner +
                                 "', not '" + ctx_.subsystem_name() + "'");
  const std::uint64_t token = ar.get_varint();
  const std::uint64_t next_token = ar.get_varint();
  const VirtualTime cut_now = serial::read<VirtualTime>(ar);

  Scheduler& scheduler = ctx_.scheduler();
  ChannelSet& channels = ctx_.channels();

  // Whatever this process did in its brief pre-restore life is void.
  ctx_.checkpoints().discard_all();
  ctx_.clear_positions();
  cl_snapshots_.clear();
  next_cl_token_ = next_token;
  dispatches_since_auto_snapshot_ = 0;

  const std::uint64_t comp_count = ar.get_varint();
  if (comp_count != scheduler.component_count())
    raise(ErrorKind::kState,
          "recovery image has " + std::to_string(comp_count) +
              " components, subsystem '" + ctx_.subsystem_name() + "' has " +
              std::to_string(scheduler.component_count()));
  for (std::uint64_t k = 0; k < comp_count; ++k) {
    const std::string comp_name = ar.get_string();
    const Bytes comp_image = ar.get_bytes();
    Component* comp = scheduler.find_component(comp_name);
    if (comp == nullptr)
      raise(ErrorKind::kState,
            "recovery image names unknown component '" + comp_name + "'");
    comp->restore_image(comp_image);
  }

  const std::uint64_t event_count = ar.get_varint();
  std::vector<Event> events;
  events.reserve(event_count);
  for (std::uint64_t k = 0; k < event_count; ++k)
    events.push_back(Event::load(ar));
  scheduler.replace_queue(std::move(events));
  scheduler.set_now(cut_now);

  const std::uint64_t channel_count = ar.get_varint();
  if (channel_count != channels.size())
    raise(ErrorKind::kState,
          "recovery image has " + std::to_string(channel_count) +
              " channels, subsystem '" + ctx_.subsystem_name() + "' has " +
              std::to_string(channels.size()));
  // The image is the serialized cut: install its channel state, then
  // register it as a complete cut under its token and restore that like
  // any other.
  std::vector<std::vector<EventMsg>> recorded;
  for (std::uint32_t i = 0; i < channels.size(); ++i) {
    ChannelEndpoint& c = channels[i];
    const std::string channel_name = ar.get_string();
    if (channel_name != c.name())
      raise(ErrorKind::kState, "recovery image channel '" + channel_name +
                                   "' does not match '" + c.name() + "'");
    const auto mode = static_cast<ChannelMode>(ar.get_u8());
    c.restore_mode(mode, ar.get_varint());
    c.output_log = get_records<ChannelEndpoint::OutputRecord>(ar);
    c.input_log = get_records<ChannelEndpoint::InputRecord>(ar);
    c.replay_cursor = std::min<std::size_t>(ar.get_varint(),
                                            c.output_log.size());
    c.output_trimmed = ar.get_varint();
    c.input_trimmed = ar.get_varint();
    c.set_send_counter(ar.get_varint());
    // The input prefix was already injected at the cut: its undispatched
    // deliveries travel inside the restored queue.
    c.injected_count = c.input_log.size();
    recorded.push_back(get_records<EventMsg>(ar));
  }
  // The cut's checkpoint, with positions equal to the logs just installed
  // and the image's modes, is the rollback target of last resort.
  PendingSnapshot cut = checkpoint_cut();
  cut.mark_pending.assign(channels.size(), false);
  cut.recorded = std::move(recorded);
  cut.persisted = true;  // it came from a store: never commit it again
  cl_snapshots_.emplace(token, std::move(cut));

  restore(token);

  ctx_.stats().recoveries++;
  PIA_OBS_TRACE(scheduler.trace(), obs::TraceKind::kRecover, scheduler.now(),
                token);
}

void SnapshotCoordinator::invalidate_after(SnapshotId kept) {
  if (!store_) return;
  for (auto& [cl_token, pending] : cl_snapshots_) {
    if (!pending.persisted || !(kept < pending.local)) continue;
    store_->remove(cl_token);
    pending.persisted = false;
    ctx_.stats().snapshots_invalidated++;
  }
}

const PendingSnapshot* SnapshotCoordinator::find(std::uint64_t token) const {
  const auto it = cl_snapshots_.find(token);
  return it == cl_snapshots_.end() ? nullptr : &it->second;
}

PendingSnapshot SnapshotCoordinator::checkpoint_cut() {
  const ChannelSet& channels = ctx_.channels();
  PendingSnapshot cut;
  cut.local = ctx_.take_checkpoint();
  cut.positions = ctx_.positions_of(cut.local);
  cut.mark_pending.assign(channels.size(), true);
  cut.recorded.resize(channels.size());
  for (const auto& c : channels) {
    cut.modes.push_back(c->mode());
    cut.mode_epochs.push_back(c->mode_epoch());
  }
  return cut;
}

void SnapshotCoordinator::maybe_persist(std::uint64_t token) {
  if (!store_) return;
  const auto it = cl_snapshots_.find(token);
  if (it == cl_snapshots_.end() || it->second.persisted) return;
  if (!complete(token)) return;
  const CheckpointManager& checkpoints = ctx_.checkpoints();
  // A rollback past the cut discards its local checkpoint; the token can
  // never be persisted here, so it never becomes common across the cluster.
  if (!checkpoints.contains(it->second.local)) return;
  // A recorded in-flight event older than the cut is an optimistic
  // straggler frozen mid-flight: replaying it bit-exactly needs rollback
  // history from before the cut, which a fresh process cannot have.  Skip
  // the token; recovery simply uses an earlier common one.
  const VirtualTime cut_now = checkpoints.snapshot_time(it->second.local);
  for (const auto& recorded : it->second.recorded)
    for (const EventMsg& event : recorded)
      if (event.time < cut_now) return;
  const Bytes payload = export_image(token);
  store_->commit(token, payload);
  it->second.persisted = true;
  ctx_.stats().snapshots_persisted++;
  ctx_.stats().snapshot_persist_bytes += payload.size();
  PIA_OBS_TRACE(ctx_.scheduler().trace(), obs::TraceKind::kSnapshotPersist,
                ctx_.scheduler().now(), token, payload.size());
}

}  // namespace pia::dist::sync
