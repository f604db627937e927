#include "wubbleu/handheld.hpp"

#include "base/error.hpp"
#include "serial/archive.hpp"
#include "wubbleu/cellular.hpp"
#include "wubbleu/jpeg.hpp"

namespace pia::wubbleu {

// ---------------------------------------------------------------------------
// StrokeSource
// ---------------------------------------------------------------------------

StrokeSource::StrokeSource(std::string name, std::vector<std::string> urls,
                           VirtualTime stroke_period, std::uint64_t seed)
    : Component(std::move(name)), period_(stroke_period), seed_(seed) {
  for (std::string& url : urls) script_.push_back(url + "\n");
  strokes_ = add_output("strokes");
}

void StrokeSource::on_init() {
  if (!script_.empty()) wake_after(period_);
}

void StrokeSource::on_wake() {
  if (url_index_ >= script_.size()) return;
  const std::string& url = script_[url_index_];
  const char c = url[char_index_];
  // A light jitter: a practiced user on a decent digitizer.  The
  // recognizer's robustness margin is exercised separately in its tests.
  send(strokes_,
       Value{encode_stroke(noisy_stroke_for_char(
           c, seed_ + url_index_ * 1000 + char_index_, /*jitter=*/0.004F))});
  if (++char_index_ >= url.size()) {
    char_index_ = 0;
    ++url_index_;
  }
  if (url_index_ < script_.size()) wake_after(period_);
}

void StrokeSource::on_receive(PortIndex, const Value&) {}

void StrokeSource::save_state(serial::OutArchive& ar) const {
  ar.put_varint(url_index_);
  ar.put_varint(char_index_);
}

void StrokeSource::restore_state(serial::InArchive& ar) {
  url_index_ = ar.get_varint();
  char_index_ = ar.get_varint();
}

// ---------------------------------------------------------------------------
// Recognizer
// ---------------------------------------------------------------------------

Recognizer::Recognizer(std::string name, proc::ProcessorProfile profile)
    : SoftwareComponent(std::move(name), std::move(profile)) {
  // The digitizer queues strokes: one can arrive while the classifier,
  // ahead in virtual time, is still on the previous one, and is taken when
  // it is free.
  strokes_ = add_input("strokes", PortSync::kAsynchronous);
  chars_ = add_output("chars");
}

void Recognizer::on_data(PortIndex port, const Value& value) {
  PIA_REQUIRE(port == strokes_, "value on unexpected Recognizer port");
  const Stroke stroke = decode_stroke(value.as_packet());
  const auto result = classifier_.classify(stroke);
  exec_cycles(HandwritingClassifier::classify_cycles(stroke.size()));
  ++classified_;
  send(chars_, Value{static_cast<std::uint64_t>(
                   static_cast<unsigned char>(result.character))});
}

void Recognizer::save_state(serial::OutArchive& ar) const {
  ar.put_varint(classified_);
}

void Recognizer::restore_state(serial::InArchive& ar) {
  classified_ = ar.get_varint();
}

// ---------------------------------------------------------------------------
// Ui
// ---------------------------------------------------------------------------

Value encode_page_done(const PageDone& done) {
  serial::OutArchive ar;
  ar.put_string(done.url);
  ar.put_varint(done.body_bytes);
  ar.put_varint(done.images);
  return Value{std::move(ar).take()};
}

PageDone decode_page_done(const Value& value) {
  serial::InArchive ar(value.as_packet());
  PageDone done;
  done.url = ar.get_string();
  done.body_bytes = static_cast<std::uint32_t>(ar.get_varint());
  done.images = static_cast<std::uint32_t>(ar.get_varint());
  return done;
}

Ui::Ui(std::string name) : Component(std::move(name)) {
  chars_ = add_input("chars");
  request_ = add_output("request");
  // Completion is a notification: the UI may be ahead in virtual time
  // (already echoing the next URL's strokes) when it arrives.
  done_ = add_input("done", PortSync::kAsynchronous);
  declare_horizons();
}

VirtualTime Ui::quiet_until(PortIndex) const {
  return VirtualTime::infinity();  // no timers: only input makes a request
}

VirtualTime Ui::min_latency(PortIndex in, PortIndex) const {
  return in == chars_ ? ticks(1000) : VirtualTime::infinity();
}

void Ui::on_receive(PortIndex port, const Value& value) {
  if (port == chars_) {
    const char c = static_cast<char>(value.as_word());
    if (c != '\n') {
      pending_url_.push_back(c);
      return;
    }
    advance(ticks(1000));  // UI latency: echo the URL, start the spinner
    loads_.push_back(PageLoad{.url = pending_url_,
                              .requested_at = local_time(),
                              .completed_at = VirtualTime::infinity()});
    send(request_, Value::token(pending_url_));
    pending_url_.clear();
    return;
  }
  if (port == done_) {
    const PageDone done = decode_page_done(value);
    // Loads complete in request order: match the oldest pending entry.
    for (auto it = loads_.begin(); it != loads_.end(); ++it) {
      if (it->url == done.url && it->completed_at.is_infinite()) {
        it->completed_at = local_time();
        it->body_bytes = done.body_bytes;
        it->images = done.images;
        return;
      }
    }
    raise(ErrorKind::kState, "page-done for a page the UI never requested");
  }
  raise(ErrorKind::kState, "value on unexpected Ui port");
}

std::size_t Ui::completed() const {
  std::size_t n = 0;
  for (const PageLoad& load : loads_)
    if (!load.completed_at.is_infinite()) ++n;
  return n;
}

void Ui::save_state(serial::OutArchive& ar) const {
  ar.put_string(pending_url_);
  ar.put_varint(loads_.size());
  for (const PageLoad& load : loads_) {
    ar.put_string(load.url);
    serial::write(ar, load.requested_at);
    serial::write(ar, load.completed_at);
    ar.put_varint(load.body_bytes);
    ar.put_varint(load.images);
  }
}

void Ui::restore_state(serial::InArchive& ar) {
  pending_url_ = ar.get_string();
  loads_.resize(ar.get_varint());
  for (PageLoad& load : loads_) {
    load.url = ar.get_string();
    load.requested_at = serial::read<VirtualTime>(ar);
    load.completed_at = serial::read<VirtualTime>(ar);
    load.body_bytes = static_cast<std::uint32_t>(ar.get_varint());
    load.images = static_cast<std::uint32_t>(ar.get_varint());
  }
}

// ---------------------------------------------------------------------------
// HandheldCpu
// ---------------------------------------------------------------------------

HandheldCpu::HandheldCpu(std::string name, proc::ProcessorProfile profile,
                         std::size_t memory_bytes)
    : SoftwareComponent(std::move(name), std::move(profile)),
      memory_(memory_bytes) {
  // A typed-ahead URL is an interrupt to the browser task: it can arrive
  // while the CPU, ahead in virtual time, is still decoding the previous
  // page, and is taken when the task is free (queued_urls_).
  request_ = add_input("request", PortSync::kAsynchronous);
  tx_ = add_output("tx");
  nic_irq_ = add_irq_input("nic_irq", [this](const Value& irq, VirtualTime at) {
    handle_nic_completion(irq, at);
  });
  done_ = add_output("done");
  declare_horizons();
}

VirtualTime HandheldCpu::quiet_until(PortIndex) const {
  return VirtualTime::infinity();  // no timers: only input makes output
}

VirtualTime HandheldCpu::min_latency(PortIndex in, PortIndex out) const {
  if (in == request_) return out == tx_ ? VirtualTime::zero()
                                        : VirtualTime::infinity();
  if (out == tx_ && queued_urls_.empty()) return VirtualTime::infinity();
  return VirtualTime::zero();
}

void HandheldCpu::on_data(PortIndex port, const Value& value) {
  PIA_REQUIRE(port == request_, "value on unexpected HandheldCpu port");
  const std::string url{value.as_token()};
  if (inflight_url_.has_value()) {
    queued_urls_.push_back(url);  // the user typed ahead of the network
    return;
  }
  issue_request(url);
}

void HandheldCpu::issue_request(const std::string& url) {
  inflight_url_ = url;
  // Build and send the HTTP request: parsing, socket setup, MAC handoff.
  exec(/*alu=*/400, /*loads=*/120, /*stores=*/80, /*branches=*/60);
  send(tx_, Value{encode_request(HttpRequest{.url = url})});
}

void HandheldCpu::handle_nic_completion(const Value& irq, VirtualTime) {
  // The NIC reassembled a whole response into our memory; read it out.
  const auto [addr, length] = NicDma::decode_completion(irq);

  // Copy-out cost: one load+store per word.
  exec(/*alu=*/length / 8, /*loads=*/length / 4, /*stores=*/length / 4);
  const Bytes raw = memory_.dma_read(addr, length);
  const HttpResponse response = decode_response(raw);

  PIA_REQUIRE(inflight_url_.has_value(),
              "NIC completion with no request in flight");

  // Decode every image on the page: this is where the handheld burns its
  // cycles (and where a JPEG chip would earn its keep).
  for (const ImageRef& ref : response.images) {
    const GrayImage image = jpeg_decode(
        BytesView{response.body}.subspan(ref.offset, ref.length));
    exec_cycles(jpeg_decode_cycles(ref.width, ref.height));
    ++images_decoded_;
    if (image.width != ref.width || image.height != ref.height)
      ++image_pixel_errors_;
  }

  ++pages_loaded_;
  const std::string url = *inflight_url_;
  inflight_url_.reset();
  send(done_, encode_page_done(PageDone{
                  .url = url,
                  .body_bytes = static_cast<std::uint32_t>(
                      response.body.size()),
                  .images = static_cast<std::uint32_t>(
                      response.images.size())}));

  if (!queued_urls_.empty()) {
    const std::string next = queued_urls_.front();
    queued_urls_.erase(queued_urls_.begin());
    issue_request(next);
  }
}

void HandheldCpu::save_state(serial::OutArchive& ar) const {
  memory_.save(ar);
  serial::write(ar, std::optional<std::string>(inflight_url_));
  serial::write(ar, queued_urls_);
  ar.put_varint(pages_loaded_);
  ar.put_varint(images_decoded_);
  ar.put_varint(image_pixel_errors_);
}

void HandheldCpu::restore_state(serial::InArchive& ar) {
  memory_.restore(ar);
  inflight_url_ = serial::read_optional<std::string>(ar);
  queued_urls_ = serial::read_vector<std::string>(ar);
  pages_loaded_ = ar.get_varint();
  images_decoded_ = ar.get_varint();
  image_pixel_errors_ = ar.get_varint();
}

}  // namespace pia::wubbleu
