// Span-tree analysis of an obs::Registry snapshot.
//
// The library records flat spans {name, detail, thread, start, duration};
// this rebuilds their nesting per thread from interval containment, so a
// layer's self time (its duration minus what its direct children cover)
// and a parent's coverage by its children can be read from the outside.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace perfbench {

struct SpanNode {
  paraconv::obs::SpanRecord record;
  /// Sum of the durations of the direct children (they never overlap on
  /// one thread, so this is also the covered share of the interval).
  std::int64_t children_ns{0};

  std::int64_t self_ns() const { return record.duration_ns - children_ns; }
};

struct SpanTree {
  std::vector<SpanNode> nodes;

  /// Total duration of every span called `name` (and, when non-empty,
  /// carrying `detail`), in milliseconds.
  double total_ms(const std::string& name, const std::string& detail = "") const;
  /// Total self time of every span called `name`, in milliseconds.
  double self_ms(const std::string& name) const;
  /// Number of spans called `name` (and carrying `detail` when non-empty).
  std::int64_t count(const std::string& name,
                     const std::string& detail = "") const;
  /// Share of the time of spans called `name` that their direct children
  /// cover, in percent; 100 when there is no such span.
  double coverage_pct(const std::string& name) const;
  /// Share of the spans called `name` whose own children cover at least
  /// `min_pct` percent of them, in percent.
  double closed_pct(const std::string& name, double min_pct) const;
};

/// Nests `spans` (one registry's, in recording order) by containment within
/// each thread. A span whose interval equals its parent's is placed inside
/// the one recorded later, which on one thread is always the enclosing
/// scope.
SpanTree build_span_tree(const std::vector<paraconv::obs::SpanRecord>& spans);

}  // namespace perfbench
