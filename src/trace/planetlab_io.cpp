#include "ecocloud/trace/planetlab_io.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <istream>
#include <string>

#include "ecocloud/util/string_util.hpp"
#include "ecocloud/util/validation.hpp"

namespace ecocloud::trace {

std::vector<float> parse_planetlab_file(std::istream& in) {
  std::vector<float> samples;
  std::string line;
  while (std::getline(in, line)) {
    const std::string trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    const double value = util::parse_double(trimmed);
    samples.push_back(static_cast<float>(std::clamp(value, 0.0, 100.0)));
  }
  return samples;
}

TraceSet read_planetlab_dir(const std::filesystem::path& dir,
                            double sample_period_s, double reference_mhz) {
  util::require(std::filesystem::is_directory(dir),
                "read_planetlab_dir: not a directory: " + dir.string());

  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  util::require(!files.empty(), "read_planetlab_dir: no trace files in " +
                                    dir.string());
  std::sort(files.begin(), files.end());

  std::vector<std::vector<float>> series;
  std::size_t longest = 0;
  for (const auto& file : files) {
    std::ifstream in(file);
    util::require(in.good(), "read_planetlab_dir: cannot open " + file.string());
    auto samples = parse_planetlab_file(in);
    util::require(!samples.empty(),
                  "read_planetlab_dir: empty trace file " + file.string());
    longest = std::max(longest, samples.size());
    series.push_back(std::move(samples));
  }
  // Equalize lengths by wrap-around so the set is rectangular.
  for (auto& s : series) {
    const std::size_t original = s.size();
    while (s.size() < longest) s.push_back(s[s.size() % original]);
  }
  return TraceSet::from_series(series, sample_period_s, reference_mhz);
}

void write_planetlab_dir(const TraceSet& set, const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  for (std::size_t v = 0; v < set.num_vms(); ++v) {
    char name[32];  // "vm_" + up to 20 digits + NUL
    std::snprintf(name, sizeof(name), "vm_%05zu", v);
    std::ofstream out(dir / name);
    util::require(out.good(),
                  "write_planetlab_dir: cannot create file in " + dir.string());
    for (std::size_t k = 0; k < set.num_steps(); ++k) {
      out << set.percent_at(v, k) << '\n';
    }
  }
}

}  // namespace ecocloud::trace
