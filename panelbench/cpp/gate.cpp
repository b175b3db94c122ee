#include "gate.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace panelbench {

using namespace qfab;

namespace {

std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::vector<std::string> cells;
    std::istringstream fields(line);
    std::string cell;
    while (std::getline(fields, cell, ',')) cells.push_back(cell);
    rows.push_back(std::move(cells));
  }
  return rows;
}

}  // namespace

std::string panel_csv(const SweepResult& result,
                      const std::string& csv_path) {
  sweep_csv_table(result).write_csv(csv_path);
  std::ifstream in(csv_path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> health_problems(const SweepResult& result) {
  std::vector<std::string> problems;
  if (!result.complete)
    problems.push_back("panel incomplete: " +
                       std::to_string(result.units_done) + "/" +
                       std::to_string(result.units_total) + " units");
  for (const std::string& err : result.unit_errors)
    problems.push_back("poisoned unit: " + err);
  return problems;
}

double sigma_tolerance(std::uint64_t shots, int instances) {
  return std::sqrt(static_cast<double>(shots) /
                   static_cast<double>(std::max(instances, 1)));
}

std::vector<std::string> compare_to_reference(const std::string& csv,
                                              const std::string& ref_csv,
                                              std::uint64_t shots) {
  // Columns of sweep_csv_table: depth, rate_percent, success_rate, sigma,
  // lower_flips, upper_flips, instances.
  constexpr std::size_t kSigma = 3;
  constexpr std::size_t kInstances = 6;
  const auto got = parse_csv(csv);
  const auto ref = parse_csv(ref_csv);
  if (got.size() != ref.size() || got.empty())
    return {"panel has " + std::to_string(got.size()) +
            " CSV rows, the reference " + std::to_string(ref.size())};
  std::vector<std::string> problems;
  for (std::size_t k = 0; k < got.size(); ++k) {
    const std::vector<std::string>& g = got[k];
    const std::vector<std::string>& r = ref[k];
    bool same = g.size() == 7 && r.size() == 7;
    for (std::size_t c = 0; same && c < g.size(); ++c) {
      if (c == kSigma && k > 0) {
        const double gs = std::strtod(g[c].c_str(), nullptr);
        const double rs = std::strtod(r[c].c_str(), nullptr);
        const int n = std::atoi(r[kInstances].c_str());
        same = std::abs(gs - rs) <= sigma_tolerance(shots, n);
      } else {
        same = g[c] == r[c];
      }
    }
    if (!same) {
      std::ostringstream why;
      why << "CSV row " << k + 1 << " '";
      for (std::size_t c = 0; c < g.size(); ++c) why << (c ? "," : "") << g[c];
      why << "' vs reference '";
      for (std::size_t c = 0; c < r.size(); ++c) why << (c ? "," : "") << r[c];
      why << "'";
      problems.push_back(why.str());
    }
  }
  return problems;
}

std::vector<std::string> compare_csv(const std::string& got,
                                     const std::string& want,
                                     const std::string& what) {
  if (got == want) return {};
  std::istringstream g(got), w(want);
  std::string gl, wl;
  for (int line = 1;; ++line) {
    const bool more_g = static_cast<bool>(std::getline(g, gl));
    const bool more_w = static_cast<bool>(std::getline(w, wl));
    if (!more_g && !more_w) break;
    if (!more_g || !more_w || gl != wl)
      return {what + " differs at line " + std::to_string(line) + ": got '" +
              (more_g ? gl : "<end>") + "', want '" + (more_w ? wl : "<end>") +
              "'"};
  }
  return {what + " differs (line endings or trailing bytes)"};
}

std::vector<std::string> compare_to_golden(const std::string& csv,
                                           const std::string& golden,
                                           const std::string& golden_path,
                                           const RunOptions& run) {
  if (run.precision == Precision::kDouble)
    return compare_csv(csv, golden, "panel CSV vs " + golden_path);
  std::vector<std::string> problems;
  for (const std::string& p : compare_to_reference(csv, golden, run.shots))
    problems.push_back("golden " + golden_path + ": " + p);
  return problems;
}

void flip_one_outcome(SweepResult& result, std::size_t point) {
  PointStats& s = result.points.at(point).stats;
  s.successes += s.successes > 0 ? -1 : 1;
  s.success_rate =
      static_cast<double>(s.successes) / static_cast<double>(s.instances);
}

}  // namespace panelbench
