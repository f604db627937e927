// The handheld unit's modules (paper Fig. 5): UI, handwriting recognition,
// browser control + JPEG decoding on the CPU, and the stylus input source.
//
// Mapping (the paper's chosen architecture, Fig. 6): all of these processes
// run on the embedded processor; only the network interface lives on the
// cellular ASIC (cellular.hpp).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/component.hpp"
#include "proc/memory.hpp"
#include "proc/software.hpp"
#include "wubbleu/handwriting.hpp"
#include "wubbleu/http.hpp"

namespace pia::wubbleu {

/// Scripted stylus: plays back the strokes for each URL of a browse
/// session, one character every `stroke_period`.
class StrokeSource final : public Component {
 public:
  StrokeSource(std::string name, std::vector<std::string> urls,
               VirtualTime stroke_period = ticks(200'000),
               std::uint64_t seed = 42);

  void on_init() override;
  void on_wake() override;
  void on_receive(PortIndex port, const Value& value) override;

  void save_state(serial::OutArchive& ar) const override;
  void restore_state(serial::InArchive& ar) override;

 private:
  std::vector<std::string> script_;  // each URL followed by '\n'
  VirtualTime period_;
  std::uint64_t seed_;
  std::size_t url_index_ = 0;
  std::size_t char_index_ = 0;
  PortIndex strokes_;
};

/// Handwriting recognition process: strokes in, characters out.
class Recognizer final : public proc::SoftwareComponent {
 public:
  Recognizer(std::string name,
             proc::ProcessorProfile profile = proc::ProcessorProfile::embedded_33mhz());

  void on_data(PortIndex port, const Value& value) override;

  [[nodiscard]] std::uint64_t classified() const { return classified_; }

  void save_state(serial::OutArchive& ar) const override;
  void restore_state(serial::InArchive& ar) override;

 private:
  HandwritingClassifier classifier_;
  std::uint64_t classified_ = 0;
  PortIndex strokes_;
  PortIndex chars_;
};

/// UI process: assembles recognized characters into a URL, asks the browser
/// to load it, records completion metrics.
class Ui final : public Component {
 public:
  explicit Ui(std::string name);

  struct PageLoad {
    std::string url;
    VirtualTime requested_at;
    VirtualTime completed_at;
    std::uint32_t body_bytes = 0;
    std::uint32_t images = 0;
  };

  void on_receive(PortIndex port, const Value& value) override;

  /// Output horizons: a request follows only a recognized '\n', 1,000
  /// ticks later, and never a page-done notification.
  [[nodiscard]] VirtualTime quiet_until(PortIndex out) const override;
  [[nodiscard]] VirtualTime min_latency(PortIndex in,
                                        PortIndex out) const override;

  void save_state(serial::OutArchive& ar) const override;
  void restore_state(serial::InArchive& ar) override;

  [[nodiscard]] const std::vector<PageLoad>& loads() const { return loads_; }
  [[nodiscard]] std::size_t completed() const;

 private:
  std::string pending_url_;
  std::vector<PageLoad> loads_;
  PortIndex chars_;    // from the recognizer
  PortIndex request_;  // to the browser (CPU)
  PortIndex done_;     // from the browser
};

/// Browser control + page handling on the embedded CPU: issues HTTP
/// requests through the cellular chip, reassembles responses from DMA
/// buffers, decodes the images, reports completion to the UI.
class HandheldCpu final : public proc::SoftwareComponent {
 public:
  static constexpr std::uint32_t kDmaBufferBase = 0x1000;

  HandheldCpu(std::string name,
              proc::ProcessorProfile profile = proc::ProcessorProfile::embedded_33mhz(),
              std::size_t memory_bytes = 512 * 1024);

  void on_data(PortIndex port, const Value& value) override;

  /// The CPU's memory, which the NIC bursts responses into at
  /// kDmaBufferBase.
  [[nodiscard]] proc::Memory& memory() { return memory_; }

  /// Output horizons: tx follows a request, or a NIC completion while a
  /// typed-ahead URL waits; with none queued a completion sends only done.
  /// A request can queue a URL, and its own path to tx is no slower than
  /// the one that opens.
  [[nodiscard]] VirtualTime quiet_until(PortIndex out) const override;
  [[nodiscard]] VirtualTime min_latency(PortIndex in,
                                        PortIndex out) const override;

  void save_state(serial::OutArchive& ar) const override;
  void restore_state(serial::InArchive& ar) override;

  [[nodiscard]] std::uint64_t pages_loaded() const { return pages_loaded_; }
  [[nodiscard]] std::uint64_t images_decoded() const {
    return images_decoded_;
  }
  [[nodiscard]] std::uint64_t image_pixel_errors() const {
    return image_pixel_errors_;
  }

 private:
  void handle_nic_completion(const Value& irq, VirtualTime at);
  void issue_request(const std::string& url);

  proc::Memory memory_;
  std::optional<std::string> inflight_url_;
  std::vector<std::string> queued_urls_;  // user typed ahead of the network
  std::uint64_t pages_loaded_ = 0;
  std::uint64_t images_decoded_ = 0;
  std::uint64_t image_pixel_errors_ = 0;

  PortIndex request_;  // from the UI
  PortIndex tx_;       // to the cellular chip
  PortIndex nic_irq_;  // DMA completion
  PortIndex done_;     // to the UI
};

/// Encoding of the "page done" notification on the UI's done port.
struct PageDone {
  std::string url;
  std::uint32_t body_bytes = 0;
  std::uint32_t images = 0;
};
[[nodiscard]] Value encode_page_done(const PageDone& done);
[[nodiscard]] PageDone decode_page_done(const Value& value);

}  // namespace pia::wubbleu
