#include "config/file_server.hpp"

namespace endbox::config {

Status ConfigFileServer::publish(const ConfigBundle& bundle) {
  if (!bundles_.empty() && bundle.version <= bundles_.rbegin()->first)
    return err("config versions must increase monotonically");
  bundles_.emplace(bundle.version, bundle);
  return {};
}

std::optional<ConfigBundle> ConfigFileServer::fetch(std::uint32_t version) const {
  ++fetches_;
  auto it = bundles_.find(version);
  if (it == bundles_.end()) return std::nullopt;
  return it->second;
}

std::uint32_t ConfigFileServer::latest_version() const {
  return bundles_.empty() ? 0 : bundles_.rbegin()->first;
}

}  // namespace endbox::config
