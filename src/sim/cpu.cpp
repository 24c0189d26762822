#include "sim/cpu.hpp"

#include <algorithm>
#include <stdexcept>

namespace endbox::sim {

MultiCoreAccount::MultiCoreAccount(unsigned cores, double hz) : hz_(hz) {
  if (cores == 0 || hz <= 0)
    throw std::invalid_argument("MultiCoreAccount: bad parameters");
  core_free_at_.assign(cores, 0);
}

Duration MultiCoreAccount::cycles_to_ns(double cycles) const {
  return static_cast<Duration>(cycles / hz_ * 1e9);
}

Time MultiCoreAccount::charge(Time now, double cycles) {
  auto it = std::min_element(core_free_at_.begin(), core_free_at_.end());
  Time start = std::max(now, *it);
  Time service = static_cast<Time>(cycles_to_ns(cycles));
  *it = start + service;
  busy_core_ns_ += static_cast<double>(service);
  return *it;
}

double MultiCoreAccount::utilisation(Time start, Time end) const {
  if (end <= start) return 0.0;
  double window_core_ns =
      static_cast<double>(end - start) * static_cast<double>(core_free_at_.size());
  return std::min(1.0, busy_core_ns_ / window_core_ns);
}

}  // namespace endbox::sim
