// Virtual-time cost of pushing one packet through a Click router.
//
// Functional processing is real; this computes the calibrated cycle
// cost the perf model charges for it, per element class (IPFilter per
// rule, IDSMatcher per byte, splitters per amortised clock read, ...).
#pragma once

#include <cstddef>

#include "click/router.hpp"
#include "sim/perf_model.hpp"

namespace endbox {

/// Cycles for one packet with `payload_bytes` of payload traversing
/// `router` once (per-element entry plus per-element work). Callers add
/// the graph-entry cost of where the graph runs (in-enclave call vs
/// standalone Click process).
double pipeline_cycles(const click::Router& router, std::size_t payload_bytes,
                       const sim::PerfModel& model);

}  // namespace endbox
