#include <gtest/gtest.h>

#include "core/scheduler.hpp"
#include "proc/memory.hpp"
#include "proc/software.hpp"
#include "proc/timing.hpp"
#include "helpers.hpp"

namespace pia::proc {
namespace {

TEST(Timing, CyclesToTimeRoundsUp) {
  ProcessorProfile p;
  p.clock_hz = 1'000'000'000;  // 1 GHz: 1 cycle = 1 ns
  EXPECT_EQ(p.time_for_cycles(7), ticks(7));
  p.clock_hz = 333'000'000;
  EXPECT_EQ(p.time_for_cycles(1), ticks(4));  // 3.003 ns rounds up
}

TEST(Timing, BlockMixAccumulates) {
  BasicBlockTimer timer(ProcessorProfile{.clock_hz = 1'000'000'000,
                                         .alu_cycles = 1,
                                         .load_cycles = 2,
                                         .store_cycles = 3});
  timer.block(/*alu=*/10, /*loads=*/5, /*stores=*/2);
  EXPECT_EQ(timer.take(), ticks(10 + 10 + 6));
  EXPECT_EQ(timer.take(), ticks(0));  // drained
  EXPECT_EQ(timer.total_cycles(), 26u);
}

TEST(Timing, ProfilesDiffer) {
  const auto slow = ProcessorProfile::embedded_33mhz();
  const auto fast = ProcessorProfile::pentium_pro_200();
  EXPECT_GT(slow.time_for_cycles(1000), fast.time_for_cycles(1000));
}

TEST(MemoryModel, ReadWriteAndBounds) {
  Memory mem(64);
  mem.dma_write(0, to_bytes("head"));
  mem.dma_write(60, to_bytes("tail"));  // ends at the last byte
  EXPECT_EQ(to_string(mem.dma_read(0, 4)), "head");
  EXPECT_EQ(to_string(mem.dma_read(60, 4)), "tail");
  EXPECT_EQ(to_string(mem.dma_read(4, 2)), std::string(2, '\0'));
  EXPECT_THROW(mem.dma_read(61, 4), Error);
  EXPECT_THROW(mem.dma_read(64, 1), Error);
  EXPECT_THROW(mem.dma_write(1000, to_bytes("x")), Error);
}

TEST(MemoryModel, DmaBurst) {
  Memory mem(1024);
  mem.dma_write(100, to_bytes("burst data"));
  EXPECT_EQ(to_string(mem.dma_read(100, 10)), "burst data");
  EXPECT_THROW(mem.dma_write(1020, Bytes(8)), Error);
}

TEST(MemoryModel, CheckpointRoundTrip) {
  Memory mem(128);
  mem.dma_write(3, to_bytes("saved"));
  serial::OutArchive ar;
  mem.save(ar);

  Memory restored(128);
  serial::InArchive in(ar.bytes());
  restored.restore(in);
  EXPECT_EQ(to_string(restored.dma_read(3, 5)), "saved");

  Memory smaller(64);
  serial::InArchive again(ar.bytes());
  EXPECT_THROW(smaller.restore(again), Error);

  // A version-1 image (it also carried synchronous-address marks and read
  // times) fails loudly instead of misreading them as the next section.
  serial::OutArchive old;
  serial::begin_section(old, "pia.memory", 1);
  old.put_bytes(Bytes(128));
  old.put_varint(0);
  old.put_varint(0);
  serial::InArchive old_in(old.bytes());
  EXPECT_THROW(restored.restore(old_in), Error);
}

// ---------------------------------------------------------------------------
// SoftwareComponent
// ---------------------------------------------------------------------------

/// Software whose interrupt handler leaves a payload and sets a flag that
/// the mainline consumes with its next input.
class Firmware : public SoftwareComponent {
 public:
  explicit Firmware(std::string name)
      : SoftwareComponent(std::move(name),
                          ProcessorProfile{.clock_hz = 1'000'000'000}) {
    in_ = add_input("in");
    out_ = add_output("out");
    irq_ = add_irq_input("irq", [this](const Value& v, VirtualTime) {
      payload_ = v.as_word();
      flag_ = true;
      ++irqs_taken;
    });
  }

  void on_data(PortIndex, const Value& value) override {
    exec(/*alu=*/20, /*loads=*/4, /*stores=*/2);  // crunch the input
    std::uint64_t result = value.as_word() * 2;
    if (flag_) {
      result += payload_;
      flag_ = false;
    }
    exec(/*alu=*/5, /*loads=*/2, /*stores=*/1);
    send(out_, Value{result});
  }

  std::uint64_t irqs_taken = 0;
  PortIndex in_, out_, irq_;

 private:
  std::uint64_t payload_ = 0;
  bool flag_ = false;
};

TEST(Software, BasicBlockTimingAdvancesLocalTime) {
  Scheduler sched;
  auto& fw = sched.emplace<Firmware>("fw");
  auto& producer = sched.emplace<pia::testing::Producer>("p", 1, ticks(10), ticks(10));
  auto& sink = sched.emplace<pia::testing::Sink>("s");
  sched.connect(producer.id(), "out", fw.id(), "in");
  sched.connect(fw.id(), "out", sink.id(), "in");
  sched.init();
  sched.run();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0], 0u);  // 0*2, no flag
  // 20 alu + 4*2 loads + 2*2 stores = 32 cycles, + 5 + 2*2 + 1*2 = 11
  // cycles @1GHz.
  EXPECT_EQ(sink.times[0], ticks(10 + 32 + 11));
}

TEST(Software, InterruptHandlerRunsAtLogicalTime) {
  Scheduler sched;
  auto& fw = sched.emplace<Firmware>("fw");
  auto& producer = sched.emplace<pia::testing::Producer>("p", 1, ticks(10), ticks(500));
  auto& sink = sched.emplace<pia::testing::Sink>("s");
  sched.connect(producer.id(), "out", fw.id(), "in");
  sched.connect(fw.id(), "out", sink.id(), "in");
  sched.init();
  // Interrupt with payload 7 at t=100, long before the data at t=500.
  sched.inject(Event{.time = ticks(100),
                     .target = fw.id(),
                     .port = fw.irq_,
                     .kind = EventKind::kDeliver,
                     .value = Value{std::uint64_t{7}}});
  sched.run();
  EXPECT_EQ(fw.irqs_taken, 1u);
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0], 7u);  // 0*2 + data(7), flag consumed
}

}  // namespace
}  // namespace pia::proc
