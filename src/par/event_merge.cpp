#include "ecocloud/par/event_merge.hpp"

namespace ecocloud::par {

std::vector<metrics::Event> merge_event_streams(
    const std::vector<EventStream>& streams) {
  std::size_t total = 0;
  for (const EventStream& stream : streams) total += stream.events->size();
  std::vector<metrics::Event> merged;
  merged.reserve(total);
  for_each_merged_event(
      streams, [&merged](const metrics::Event& e) { merged.push_back(e); });
  return merged;
}

void for_each_merged_event(
    const std::vector<EventStream>& streams,
    const std::function<void(const metrics::Event&)>& emit) {
  std::vector<std::size_t> pos(streams.size(), 0);
  for (;;) {
    std::size_t best = streams.size();
    double best_time = 0.0;
    for (std::size_t s = 0; s < streams.size(); ++s) {
      if (pos[s] >= streams[s].events->size()) continue;
      const double time = (*streams[s].events)[pos[s]].time;
      // Strict <: on equal timestamps the earliest stream index wins, so
      // the order never depends on scan direction or input sizes.
      if (best == streams.size() || time < best_time) {
        best = s;
        best_time = time;
      }
    }
    if (best == streams.size()) break;
    const metrics::Event& raw = (*streams[best].events)[pos[best]];
    emit(streams[best].translate ? streams[best].translate(raw) : raw);
    ++pos[best];
  }
}

}  // namespace ecocloud::par
