// Element: the unit of packet processing in the Click model.
//
// Elements have numbered input and output ports; a Router wires output
// ports to downstream elements' input ports. Processing is push-based
// and burst-at-a-time: upstream calls push_batch(port, batch), the
// element transforms/filters the burst and forwards it via
// output_batch(), re-batching per output port. This is the subset of
// Click semantics the EndBox middlebox functions need (the paper's
// elements — IPFilter, RoundRobinSwitch, IDSMatcher, splitters — are
// all push elements).
// Hot-swap and reshard carry state through one transfer (ShardedRouter):
// the counter block below, absorb_state and migrate_flows.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "click/packet_batch.hpp"
#include "common/result.hpp"
#include "net/packet.hpp"

namespace endbox::click {

class Element {
 public:
  virtual ~Element() = default;

  /// The element class name as written in config files, e.g. "Counter".
  virtual std::string_view class_name() const = 0;

  /// Parses configuration arguments (the comma-separated list between
  /// parentheses in the config language). Called once before the router
  /// is activated. Default accepts an empty argument list only.
  virtual Status configure(const std::vector<std::string>& args);

  /// Receives one packet on input `port`: pushes it as a burst of one
  /// through push_batch, the element's only data-path body.
  void push(int port, net::Packet&& packet);

  /// Receives a burst on input `port`. The batch is consumed: when the
  /// call returns its packets are moved-from and the caller clears it.
  /// Each element processes the burst with one virtual call and
  /// re-batches per output port.
  virtual void push_batch(int port, PacketBatch&& batch) = 0;

  /// The one state hook, for hot-swap and reshard alike: folds
  /// `old_element` into this newly configured element. `old_element`
  /// has the same name and class and comes from the graph set being
  /// replaced. Hot-swap calls it once; reshard calls it once per old
  /// shard folded into this one, so implementations merge rather than
  /// overwrite. Counters need no override: the router sums the counter
  /// block before this runs. Default: nothing.
  virtual void absorb_state(Element& old_element);

  /// Hook for *flow-keyed* state. After a hot-swap or reshard a flow's
  /// packets arrive at shard_of(key, n), which is generally not the
  /// shard absorb_state folded this element into, so the router calls
  /// migrate_flows on every old element after the fold; implementations
  /// move each flow's state to `target_for(key)` (the same-name,
  /// same-class element on the flow's new shard, or nullptr). Default:
  /// nothing.
  virtual void migrate_flows(
      const std::function<Element*(const net::FlowKey&)>& target_for);

  /// Number of output ports this element may use (for wiring checks).
  virtual int n_outputs() const { return 1; }
  virtual int n_inputs() const { return 1; }

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Wires output `port` to `target`'s input `target_port`.
  void connect_output(int port, Element* target, int target_port);
  bool output_connected(int port) const;

  /// Counter slots every element carries (sized for IDSMatcher's ten).
  /// Each class names its slots with a private enum; ShardedRouter sums
  /// the block across hot-swap and reshard.
  static constexpr std::size_t kCounterSlots = 10;
  std::uint64_t counter(std::size_t slot) const {
    assert(slot < kCounterSlots);
    return counters_[slot];
  }

 protected:
  /// Adds `n` to counter slot `slot`.
  void count(std::size_t slot, std::uint64_t n = 1) {
    assert(slot < kCounterSlots);
    counters_[slot] += n;
  }

  /// Forwards a whole burst out of `port` and clears `batch` afterwards
  /// (the downstream element consumed the packets). Empty bursts are
  /// not forwarded. An unconnected port silently drops the burst (Click
  /// semantics for a dangling push port would be a config error;
  /// dropping keeps partially-wired test graphs usable).
  void output_batch(int port, PacketBatch&& batch);

 private:
  struct Port {
    Element* target = nullptr;
    int target_port = 0;
  };
  friend class ShardedRouter;  ///< folds counters_ on hot-swap and reshard

  std::vector<Port> outputs_;
  std::string name_;
  std::array<std::uint64_t, kCounterSlots> counters_{};
};

}  // namespace endbox::click
