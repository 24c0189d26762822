// The publicly reachable configuration file server (section III-E):
// stores every published bundle by version so clients can always fetch
// the configuration announced in a ping — including while reconnecting.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "config/bundle.hpp"

namespace endbox::config {

class ConfigFileServer {
 public:
  /// Publishes a bundle; versions must increase monotonically.
  Status publish(const ConfigBundle& bundle);

  std::optional<ConfigBundle> fetch(std::uint32_t version) const;
  std::uint32_t latest_version() const;
  std::size_t stored() const { return bundles_.size(); }
  std::uint64_t fetches() const { return fetches_; }

 private:
  std::map<std::uint32_t, ConfigBundle> bundles_;
  mutable std::uint64_t fetches_ = 0;
};

}  // namespace endbox::config
