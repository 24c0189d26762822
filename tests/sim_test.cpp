// Unit tests for the discrete-event core: clock, CPU model, timer
// wheel.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "sim/clock.hpp"
#include "sim/cpu.hpp"
#include "sim/perf_model.hpp"
#include "sim/timer_wheel.hpp"

namespace endbox::sim {
namespace {

TEST(Clock, StartsAtZeroAndAdvances) {
  Clock c;
  EXPECT_EQ(c.now(), 0u);
  c.advance_to(5 * kSecond);
  EXPECT_EQ(c.now(), 5 * kSecond);
}

TEST(Clock, RejectsBackwardsTime) {
  Clock c;
  c.advance_to(10);
  EXPECT_THROW(c.advance_to(5), std::logic_error);
}

TEST(TimeUnits, Conversions) {
  EXPECT_EQ(from_millis(1.5), 1500 * kMicrosecond);
  EXPECT_DOUBLE_EQ(to_seconds(2 * kSecond), 2.0);
  EXPECT_DOUBLE_EQ(to_millis(kSecond), 1000.0);
}

// ---- CPU model -----------------------------------------------------------

TEST(Cpu, SingleCoreSerialisesWork) {
  CpuAccount cpu(1, 1e9);  // 1 GHz: 1 cycle = 1 ns
  Time done1 = cpu.charge(0, 1000);
  Time done2 = cpu.charge(0, 1000);
  EXPECT_EQ(done1, 1000u);
  EXPECT_EQ(done2, 2000u);  // queued behind the first
}

TEST(Cpu, MultiCoreRunsInParallel) {
  CpuAccount cpu(4, 1e9);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(cpu.charge(0, 1000), 1000u);
  // Fifth item must queue behind one of the four busy cores.
  EXPECT_EQ(cpu.charge(0, 1000), 2000u);
}

TEST(Cpu, IdleCpuStartsWorkAtNow) {
  CpuAccount cpu(2, 2e9);  // 2 GHz: 1000 cycles = 500 ns
  EXPECT_EQ(cpu.charge(10'000, 1000), 10'500u);
}

TEST(Cpu, UtilisationTracksBusyTime) {
  CpuAccount cpu(2, 1e9);
  cpu.charge(0, 1000);  // 1000 ns on one of two cores
  // Over a 1000 ns window with 2 cores: 50% utilisation.
  EXPECT_NEAR(cpu.utilisation(0, 1000), 0.5, 1e-9);
}

TEST(Cpu, UtilisationCapsAtOne) {
  CpuAccount cpu(1, 1e9);
  cpu.charge(0, 10'000);
  EXPECT_DOUBLE_EQ(cpu.utilisation(0, 1000), 1.0);
}

TEST(Cpu, RejectsBadParameters) {
  EXPECT_THROW(CpuAccount(0, 1e9), std::invalid_argument);
  EXPECT_THROW(CpuAccount(1, 0), std::invalid_argument);
}

// ---- Timer wheel ----------------------------------------------------------

TEST(TimerWheel, FiresAtExactDeadlineTick) {
  TimerWheel wheel(TimerWheel::Options{1});
  std::vector<std::uint64_t> fired;
  wheel.schedule(7, 100);
  EXPECT_EQ(wheel.size(), 1u);
  wheel.advance(99, [&](std::uint64_t c, Time) { fired.push_back(c); });
  EXPECT_TRUE(fired.empty());  // one tick early: must not fire
  wheel.advance(100, [&](std::uint64_t c, Time) { fired.push_back(c); });
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{7}));
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheel, DeadlineRoundsDownToTickResolution) {
  TimerWheel wheel(TimerWheel::Options{10});
  std::vector<std::uint64_t> fired;
  wheel.schedule(1, 95);  // tick 9
  wheel.advance(89, [&](std::uint64_t c, Time) { fired.push_back(c); });
  EXPECT_TRUE(fired.empty());
  wheel.advance(90, [&](std::uint64_t c, Time) { fired.push_back(c); });
  EXPECT_EQ(fired.size(), 1u);
}

TEST(TimerWheel, PastDeadlineFiresOnNextAdvance) {
  TimerWheel wheel(TimerWheel::Options{1});
  wheel.advance(50, [](std::uint64_t, Time) {});
  std::vector<std::uint64_t> fired;
  wheel.schedule(3, 10);  // already past the horizon
  wheel.advance(51, [&](std::uint64_t c, Time) { fired.push_back(c); });
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{3}));
}

TEST(TimerWheel, SameTickFiresInScheduleOrder) {
  TimerWheel wheel(TimerWheel::Options{1});
  std::vector<std::uint64_t> fired;
  for (std::uint64_t c = 0; c < 8; ++c) wheel.schedule(c, 42);
  wheel.advance(42, [&](std::uint64_t c, Time) { fired.push_back(c); });
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(TimerWheel, CallbackMayScheduleNewTimers) {
  TimerWheel wheel(TimerWheel::Options{1});
  std::vector<Time> fired_at;
  // A self-rescheduling heartbeat: each firing arms the next.
  std::function<void(std::uint64_t, Time)> fire =
      [&](std::uint64_t, Time deadline) {
        fired_at.push_back(deadline);
        if (fired_at.size() < 5) wheel.schedule(1, deadline + 10);
      };
  wheel.schedule(1, 10);
  wheel.advance(100, fire);
  EXPECT_EQ(fired_at, (std::vector<Time>{10, 20, 30, 40, 50}));
}

TEST(TimerWheel, DrainReturnsEveryPendingTimer) {
  TimerWheel wheel(TimerWheel::Options{1});
  std::set<std::uint64_t> expect;
  Rng rng(0xd5a1);
  for (std::uint64_t c = 0; c < 200; ++c) {
    wheel.schedule(c, 1 + rng.uniform(0, 5'000'000));
    expect.insert(c);
  }
  std::set<std::uint64_t> drained;
  wheel.drain([&](std::uint64_t c, Time) { drained.insert(c); });
  EXPECT_EQ(drained, expect);
  EXPECT_EQ(wheel.size(), 0u);
  wheel.advance(10'000'000, [](std::uint64_t, Time) { FAIL(); });
}

TEST(TimerWheel, LargeJumpRebuildFiresInDeadlineOrder) {
  TimerWheel wheel(TimerWheel::Options{1});
  Rng rng(0xbead);
  std::vector<std::pair<Time, std::uint64_t>> expect;
  for (std::uint64_t c = 0; c < 500; ++c) {
    Time deadline = 1 + rng.uniform(0, 2'000'000);
    wheel.schedule(c, deadline);
    if (deadline <= 1'000'000) expect.push_back({deadline, c});
  }
  std::sort(expect.begin(), expect.end());
  // A jump far past the rebuild threshold (4 * 256 ticks).
  std::vector<std::pair<Time, std::uint64_t>> fired;
  wheel.advance(1'000'000,
                [&](std::uint64_t c, Time d) { fired.push_back({d, c}); });
  EXPECT_EQ(fired, expect);
  // The survivors still fire at their own deadlines afterwards.
  std::size_t late = wheel.size();
  EXPECT_EQ(late, 500 - expect.size());
  std::size_t n = wheel.advance(2'000'001, [](std::uint64_t, Time) {});
  EXPECT_EQ(n, late);
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheel, MatchesReferenceModelOverRandomSchedule) {
  // Property: against a multimap reference, arbitrary interleavings of
  // schedule() and advance() (small steps, slot-boundary steps, and
  // rebuild-sized jumps) fire exactly the same (deadline, cookie) sets.
  TimerWheel wheel(TimerWheel::Options{3});
  std::multimap<Time, std::uint64_t> reference;  // deadline tick -> cookie
  Rng rng(0xfeed);
  Time now = 0;
  std::uint64_t next_cookie = 1;
  for (int step = 0; step < 3000; ++step) {
    if (rng.uniform(0, 2) != 0) {
      Time deadline = now + rng.uniform(0, 10'000);
      std::uint64_t tick = deadline / 3;
      if (tick <= now / 3) tick = now / 3 + 1;  // past: next advance
      wheel.schedule(next_cookie, deadline);
      reference.emplace(tick, next_cookie);
      ++next_cookie;
    } else {
      switch (rng.uniform(0, 3)) {
        case 0: now += rng.uniform(1, 8); break;
        case 1: now = (now / (3 * 256) + 1) * (3 * 256); break;  // slot edge
        default: now += 3 * rng.uniform(1100, 5000); break;      // rebuild
      }
      std::multiset<std::uint64_t> fired;
      wheel.advance(now, [&](std::uint64_t c, Time) { fired.insert(c); });
      std::multiset<std::uint64_t> expect;
      auto end = reference.upper_bound(now / 3);
      for (auto it = reference.begin(); it != end; ++it) expect.insert(it->second);
      reference.erase(reference.begin(), end);
      ASSERT_EQ(fired, expect) << "advance to " << now << " step " << step;
      ASSERT_EQ(wheel.size(), reference.size());
    }
  }
}

// ---- Perf model sanity ----------------------------------------------------

TEST(PerfModel, VpnDataCostScalesWithBytesAndMode) {
  const auto& m = default_perf_model();
  double small = m.vpn_data_cycles(256, /*encrypt=*/true);
  double large = m.vpn_data_cycles(1500, /*encrypt=*/true);
  double integ = m.vpn_data_cycles(1500, /*encrypt=*/false);
  EXPECT_GT(large, small);
  EXPECT_LT(integ, large);  // ISP integrity-only mode is cheaper
}

TEST(PerfModel, CalibrationImpliesPaperScaleThroughput) {
  // Sanity-check the calibration: a single 3.5 GHz core running the
  // modelled vanilla-OpenVPN data path at 1500-byte packets should land
  // in the several-hundred-Mbps range the paper measures (Fig 8).
  const auto& m = default_perf_model();
  double cycles = m.vpn_data_cycles(1500, true);
  double pkts_per_sec = m.client_hz / cycles;
  double mbps = pkts_per_sec * 1500 * 8 / 1e6;
  EXPECT_GT(mbps, 400.0);
  EXPECT_LT(mbps, 1500.0);
}

}  // namespace
}  // namespace endbox::sim
