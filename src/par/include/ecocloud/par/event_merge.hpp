#pragma once

/// \file event_merge.hpp
/// \brief Deterministic (K+1)-way merge of per-shard event-log segments.
///
/// Each shard records its decision events in local ids; the coordinator
/// adds its own cross-shard rows (already global). Stitching them into
/// one stream must be a pure function of the inputs so a sharded run's
/// event CSV is bit-identical across thread counts and resume chains:
/// rows are ordered by (time, stream index) — strictly earlier time
/// first, ties broken by the position of the stream in the input vector
/// (shards in shard order, the coordinator last). Translation to global
/// ids happens per stream at emission via an optional callback.

#include <functional>
#include <vector>

#include "ecocloud/metrics/event_log.hpp"

namespace ecocloud::par {

/// One merge input: a time-ordered segment plus the per-row translation
/// into global ids (empty = rows are already global).
struct EventStream {
  const std::vector<metrics::Event>* events = nullptr;
  std::function<metrics::Event(const metrics::Event&)> translate;
};

/// Stable merge of the streams by (time, stream index). Every input must
/// be internally time-ordered; the output applies each stream's
/// translation callback.
[[nodiscard]] std::vector<metrics::Event> merge_event_streams(
    const std::vector<EventStream>& streams);

/// The same merge, handing each translated row to \p emit in order
/// instead of materializing the merged vector.
void for_each_merged_event(
    const std::vector<EventStream>& streams,
    const std::function<void(const metrics::Event&)>& emit);

}  // namespace ecocloud::par
