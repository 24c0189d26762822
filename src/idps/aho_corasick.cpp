#include "idps/aho_corasick.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace endbox::idps {

void AhoCorasick::add_pattern(ByteView pattern, int pattern_id) {
  if (built_) throw std::logic_error("AhoCorasick: add_pattern after build");
  if (pattern.empty()) return;
  std::int32_t state = 0;
  for (std::uint8_t byte : pattern) {
    auto& children = nodes_[static_cast<std::size_t>(state)].children;
    auto edge = std::find_if(children.begin(), children.end(),
                             [byte](const auto& e) { return e.first == byte; });
    if (edge != children.end()) {
      state = edge->second;
      continue;
    }
    std::int32_t next = static_cast<std::int32_t>(nodes_.size());
    children.emplace_back(byte, next);
    nodes_.emplace_back();
    state = next;
  }
  std::int32_t index = static_cast<std::int32_t>(pattern_ids_.size());
  pattern_ids_.push_back(pattern_id);
  pattern_lengths_.push_back(pattern.size());
  pattern_bytes_.emplace_back(pattern.begin(), pattern.end());
  max_pattern_length_ = std::max(max_pattern_length_, pattern.size());
  nodes_[static_cast<std::size_t>(state)].outputs.push_back(index);
}

void AhoCorasick::build(bool prefilter_case_insensitive) {
  if (built_) return;
  // Goto function, one dense row per node, written in BFS order (root
  // first): a node's row is its failure node's row — shallower, so
  // already complete — with its own trie edges written over it; root
  // bytes without an edge loop to the root. Output links point at
  // strictly shallower nodes, so the same order resolves the CSR
  // output lists below.
  const std::size_t node_total = nodes_.size();
  transitions_.assign(node_total * 256, 0);
  std::vector<std::int32_t> bfs_order;
  bfs_order.reserve(node_total);
  std::queue<std::int32_t> bfs;
  bfs.push(0);
  while (!bfs.empty()) {
    std::int32_t state = bfs.front();
    bfs.pop();
    bfs_order.push_back(state);
    Node& node = nodes_[static_cast<std::size_t>(state)];
    std::int32_t* row = &transitions_[static_cast<std::size_t>(state) * 256];
    const std::int32_t* fail_row =
        &transitions_[static_cast<std::size_t>(node.fail) * 256];
    if (state != 0) {
      // Output link: nearest proper-suffix state that has outputs.
      const Node& fail_node = nodes_[static_cast<std::size_t>(node.fail)];
      node.output_link = fail_node.outputs.empty() ? fail_node.output_link : node.fail;
      std::copy(fail_row, fail_row + 256, row);
    }
    std::sort(node.children.begin(), node.children.end());
    for (auto [byte, child] : node.children) {
      // Depth-1 nodes fail to the root.
      nodes_[static_cast<std::size_t>(child)].fail = state == 0 ? 0 : fail_row[byte];
      row[byte] = child;
      bfs.push(child);
    }
  }

  // CSR output lists. Each state's list is its own outputs followed by
  // the outputs inherited through its output link — the output link's
  // list is already complete when we get here because BFS order visits
  // shallower states first.
  out_start_.assign(nodes_.size() + 1, 0);
  out_patterns_.clear();
  std::vector<std::uint32_t> list_begin(nodes_.size(), 0);
  std::vector<std::uint32_t> list_len(nodes_.size(), 0);
  for (std::int32_t s : bfs_order) {
    const Node& node = nodes_[static_cast<std::size_t>(s)];
    std::uint32_t begin = static_cast<std::uint32_t>(out_patterns_.size());
    out_patterns_.insert(out_patterns_.end(), node.outputs.begin(),
                         node.outputs.end());
    if (node.output_link >= 0) {
      std::size_t link = static_cast<std::size_t>(node.output_link);
      // Self-insert from out_patterns_ would invalidate iterators on
      // growth; indices are stable.
      for (std::uint32_t i = 0; i < list_len[link]; ++i)
        out_patterns_.push_back(out_patterns_[list_begin[link] + i]);
    }
    list_begin[static_cast<std::size_t>(s)] = begin;
    list_len[static_cast<std::size_t>(s)] =
        static_cast<std::uint32_t>(out_patterns_.size()) - begin;
  }
  // The lists were emitted in BFS order; CSR offsets must be state
  // order. Rebuild the concatenation state-major.
  std::vector<std::int32_t> ordered;
  ordered.reserve(out_patterns_.size());
  for (std::size_t s = 0; s < nodes_.size(); ++s) {
    out_start_[s] = static_cast<std::uint32_t>(ordered.size());
    for (std::uint32_t i = 0; i < list_len[s]; ++i)
      ordered.push_back(out_patterns_[list_begin[s] + i]);
  }
  out_start_[nodes_.size()] = static_cast<std::uint32_t>(ordered.size());
  out_patterns_ = std::move(ordered);

  // First tier: the literal prefilter, compiled from the same pattern
  // set. The retained pattern bytes exist only for this step.
  std::vector<ByteView> views(pattern_bytes_.begin(), pattern_bytes_.end());
  prefilter_.build(views, prefilter_case_insensitive);
  pattern_bytes_.clear();
  pattern_bytes_.shrink_to_fit();
  nodes_.clear();
  nodes_.shrink_to_fit();
  built_ = true;
}

std::size_t AhoCorasick::match(
    ByteView text, const std::function<bool(const AcMatch&)>& on_match) const {
  if (!built_) throw std::logic_error("AhoCorasick: match before build");
  std::size_t count = 0;
  std::size_t state = 0;
  const std::int32_t* transitions = transitions_.data();
  const std::uint32_t* out_start = out_start_.data();
  for (std::size_t i = 0; i < text.size(); ++i) {
    state = static_cast<std::size_t>(transitions[(state << 8) | text[i]]);
    std::uint32_t begin = out_start[state];
    std::uint32_t end = out_start[state + 1];
    for (; begin != end; ++begin) {
      ++count;
      if (!on_match({pattern_ids_[static_cast<std::size_t>(
                         out_patterns_[begin])],
                     i + 1}))
        return count;
    }
  }
  return count;
}

std::size_t AhoCorasick::match_multi(
    std::span<const ByteView> texts,
    const std::function<bool(std::size_t, const AcMatch&)>& on_match) const {
  if (!built_) throw std::logic_error("AhoCorasick: match before build");
  // 16 interleaved walks keep the load buffers busy without spilling
  // the lane state out of registers/L1.
  constexpr std::size_t kLanes = 16;
  std::size_t count = 0;
  const std::int32_t* transitions = transitions_.data();
  const std::uint32_t* out_start = out_start_.data();
  for (std::size_t base = 0; base < texts.size(); base += kLanes) {
    std::size_t lanes = std::min(kLanes, texts.size() - base);
    std::uint32_t state[kLanes] = {};
    const std::uint8_t* data[kLanes];
    std::size_t len[kLanes];
    std::size_t max_len = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
      data[l] = texts[base + l].data();
      len[l] = texts[base + l].size();
      max_len = std::max(max_len, len[l]);
    }
    for (std::size_t i = 0; i < max_len; ++i) {
      for (std::size_t l = 0; l < lanes; ++l) {
        if (i >= len[l]) continue;
        std::uint32_t next = static_cast<std::uint32_t>(
            transitions[(static_cast<std::size_t>(state[l]) << 8) | data[l][i]]);
        state[l] = next;
        std::uint32_t begin = out_start[next];
        std::uint32_t end = out_start[next + 1];
        for (; begin != end; ++begin) {
          ++count;
          if (!on_match(base + l,
                        {pattern_ids_[static_cast<std::size_t>(
                             out_patterns_[begin])],
                         i + 1}))
            return count;
        }
      }
    }
  }
  return count;
}

std::vector<AcMatch> AhoCorasick::match(ByteView text) const {
  if (!built_) throw std::logic_error("AhoCorasick: match before build");
  std::vector<AcMatch> matches;
  std::size_t state = 0;
  const std::int32_t* transitions = transitions_.data();
  const std::uint32_t* out_start = out_start_.data();
  for (std::size_t i = 0; i < text.size(); ++i) {
    state = static_cast<std::size_t>(transitions[(state << 8) | text[i]]);
    for (std::uint32_t o = out_start[state]; o != out_start[state + 1]; ++o)
      matches.push_back(
          {pattern_ids_[static_cast<std::size_t>(out_patterns_[o])], i + 1});
  }
  return matches;
}

bool AhoCorasick::contains_any(ByteView text) const {
  if (!built_) throw std::logic_error("AhoCorasick: match before build");
  std::size_t state = 0;
  const std::int32_t* transitions = transitions_.data();
  const std::uint32_t* out_start = out_start_.data();
  for (std::size_t i = 0; i < text.size(); ++i) {
    state = static_cast<std::size_t>(transitions[(state << 8) | text[i]]);
    if (out_start[state] != out_start[state + 1]) return true;
  }
  return false;
}

}  // namespace endbox::idps
