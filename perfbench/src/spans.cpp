#include "spans.hpp"

#include <algorithm>
#include <numeric>

namespace perfbench {

namespace {

bool matches(const SpanNode& node, const std::string& name,
             const std::string& detail) {
  return node.record.name == name &&
         (detail.empty() || node.record.detail == detail);
}

std::int64_t end_ns(const paraconv::obs::SpanRecord& r) {
  return r.start_ns + r.duration_ns;
}

}  // namespace

SpanTree build_span_tree(const std::vector<paraconv::obs::SpanRecord>& spans) {
  // Spans are recorded when they close, so an enclosing span always has a
  // larger record index than the spans inside it. Ordering by start, then
  // longest first, then latest-recorded first visits every parent before
  // its children.
  std::vector<std::size_t> order(spans.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& ra = spans[a];
    const auto& rb = spans[b];
    if (ra.thread != rb.thread) return ra.thread < rb.thread;
    if (ra.start_ns != rb.start_ns) return ra.start_ns < rb.start_ns;
    if (ra.duration_ns != rb.duration_ns) {
      return ra.duration_ns > rb.duration_ns;
    }
    return a > b;
  });

  SpanTree tree;
  std::vector<SpanNode>& nodes = tree.nodes;
  nodes.reserve(spans.size());
  std::vector<std::size_t> open;  // indices into nodes, outermost first
  for (const std::size_t index : order) {
    const auto& record = spans[index];
    while (!open.empty()) {
      const auto& top = nodes[open.back()].record;
      if (top.thread == record.thread && end_ns(record) <= end_ns(top)) break;
      open.pop_back();
    }
    SpanNode node;
    node.record = record;
    if (!open.empty()) nodes[open.back()].children_ns += record.duration_ns;
    open.push_back(nodes.size());
    nodes.push_back(std::move(node));
  }
  return tree;
}

double SpanTree::total_ms(const std::string& name,
                          const std::string& detail) const {
  std::int64_t ns = 0;
  for (const SpanNode& node : nodes) {
    if (matches(node, name, detail)) ns += node.record.duration_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

double SpanTree::self_ms(const std::string& name) const {
  std::int64_t ns = 0;
  for (const SpanNode& node : nodes) {
    if (node.record.name == name) ns += node.self_ns();
  }
  return static_cast<double>(ns) / 1e6;
}

std::int64_t SpanTree::count(const std::string& name,
                             const std::string& detail) const {
  return std::count_if(nodes.begin(), nodes.end(), [&](const SpanNode& node) {
    return matches(node, name, detail);
  });
}

double SpanTree::coverage_pct(const std::string& name) const {
  std::int64_t total = 0;
  std::int64_t covered = 0;
  for (const SpanNode& node : nodes) {
    if (node.record.name != name) continue;
    total += node.record.duration_ns;
    covered += node.children_ns;
  }
  return total == 0 ? 100.0
                    : 100.0 * static_cast<double>(covered) /
                          static_cast<double>(total);
}

double SpanTree::closed_pct(const std::string& name, double min_pct) const {
  std::int64_t spans = 0;
  std::int64_t closed = 0;
  for (const SpanNode& node : nodes) {
    if (node.record.name != name) continue;
    ++spans;
    if (100.0 * static_cast<double>(node.children_ns) >=
        min_pct * static_cast<double>(node.record.duration_ns)) {
      ++closed;
    }
  }
  return spans == 0 ? 100.0
                    : 100.0 * static_cast<double>(closed) /
                          static_cast<double>(spans);
}

}  // namespace perfbench
