// Seeded input generator.  The program under test only ever sees the
// `.rvset` text and request headers produced here.
//
// Every generated value is written with `num()` and parsed back by the
// engine, so a value drawn twice maps to the same double and the same
// cache key.  Nothing here emits `components_only` items: a
// components-only rendezvous item prints an uninitialised `feasible`
// byte, which would make the byte oracle flaky.

#include <algorithm>
#include <cmath>

#include "bench.hpp"

namespace perfbench {
namespace {

// Resident universe: ten 10^4-cell rendezvous grids (one per
// visibility) and miss-churn's 2000-cell grid.  Cells are cheap (short
// horizon), so computing the ~10^5 outcomes takes seconds.
const std::vector<std::string> kVisibilities = {"0.1",   "0.125", "0.15", "0.175",
                                                "0.2",   "0.225", "0.25", "0.275",
                                                "0.3",   "0.325"};
/// The 2000-cell grid miss-churn bodies overlap, and the only one its
/// service holds: its visibility is none of the ten above.
const char* const kChurnVisibility = "0.21";
const std::vector<std::string> kChurnDistances = {"1"};
const std::vector<std::string> kSpeeds = {"1",   "1.1", "1.2", "1.3", "1.4",
                                          "1.5", "1.6", "1.7", "1.8", "1.9"};
const std::vector<std::string> kTimeUnits = kSpeeds;
const std::vector<std::string> kOrientations = {"0",   "0.3", "0.6", "0.9", "1.2",
                                                "1.5", "1.8", "2.1", "2.4", "2.7"};
const std::vector<std::string> kChiralities = {"1", "-1"};
const std::vector<std::string> kDistances = {"1", "2", "3", "4", "5"};
const char* const kRendezvousMaxTime = "200";

std::string join(const std::vector<std::string>& values) {
  std::string out;
  for (const std::string& v : values) {
    if (!out.empty()) out += ' ';
    out += v;
  }
  return out;
}

/// `k` distinct values of `axis`, kept in axis order.
std::vector<std::string> pick(Rng& rng, const std::vector<std::string>& axis,
                              std::size_t k) {
  std::vector<std::size_t> index(axis.size());
  for (std::size_t i = 0; i < index.size(); ++i) index[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    std::swap(index[i], index[rng.range(i, index.size() - 1)]);
  }
  std::sort(index.begin(), index.begin() + static_cast<std::ptrdiff_t>(k));
  std::vector<std::string> out;
  for (std::size_t i = 0; i < k; ++i) out.push_back(axis[index[i]]);
  return out;
}

std::string rendezvous_body(const std::string& name, const std::string& visibility,
                            const std::vector<std::string>& speeds,
                            const std::vector<std::string>& time_units,
                            const std::vector<std::string>& orientations,
                            const std::vector<std::string>& chiralities,
                            const std::vector<std::string>& distances) {
  std::string body;
  if (!name.empty()) body += "name = " + name + "\n";
  body += "[rendezvous]\nvisibility = " + visibility +
          "\nmax_time = " + kRendezvousMaxTime +
          "\nalgorithm = algorithm7\nspeeds = " + join(speeds) +
          "\ntime_units = " + join(time_units) +
          "\norientations = " + join(orientations) +
          "\nchiralities = " + join(chiralities) + "\ndistances = " + join(distances) +
          "\n";
  return body;
}

/// `base` scaled by a factor drawn from [1 - spread, 1 + spread].
/// Spreads stay small and bases stay clear of powers of two: horizons
/// and search rounds step there, and a seed must not change how much
/// work a pass does.
std::string jitter(Rng& rng, double base, double spread) {
  const double value = base * (1.0 + spread * (2.0 * rng.unit() - 1.0));
  return num(std::round(value * 1e5) / 1e5);
}

const char* const kFormats[3] = {"csv", "json", "table"};

}  // namespace

std::vector<std::string> builtin_names() {
  return {"rendezvous-grid", "search-ring", "gather-fleet", "linear-line",
          "coverage-disk"};
}

std::vector<std::string> universe_bodies() {
  std::vector<std::string> out;
  for (std::size_t v = 0; v < kVisibilities.size(); ++v) {
    out.push_back(rendezvous_body("universe-rendezvous-" + std::to_string(v),
                                  kVisibilities[v], kSpeeds, kTimeUnits, kOrientations,
                                  kChiralities, kDistances));
  }
  out.push_back(rendezvous_body("universe-churn", kChurnVisibility, kSpeeds, kTimeUnits,
                                kOrientations, kChiralities, kChurnDistances));
  return out;
}

std::vector<Input> cold_sweep_inputs(std::uint64_t seed,
                                     const std::filesystem::path& repo) {
  Rng rng(seed ^ 0xc01d5eedULL);
  std::vector<Input> out;
  for (const std::string& name : builtin_names()) {
    Input in;
    in.body = read_file(repo / "examples" / "sets" / (name + ".rvset"));
    in.golden = name + ".csv";
    out.push_back(std::move(in));
  }
  // Perturbations of the twins' cell shapes.  The counts and grid
  // sizes balance the families so that none takes more than half of
  // the compute time: gather cells step to their horizon (no fleet
  // gathers before it), so the gather perturbation's is cut fiftyfold.
  for (int i = 0; i < 16; ++i) {
    Input in;
    in.body = "[rendezvous]\nvisibility = " + jitter(rng, 0.25, 0.02) +
              "\nmax_time = 5e3\nalgorithm = algorithm7\nspeeds = 1 " +
              jitter(rng, 1.25, 0.02) + " " + jitter(rng, 1.5, 0.02) + "\ntime_units = 1 " +
              jitter(rng, 1.5, 0.02) + " " + jitter(rng, 2.0, 0.02) + "\norientations = 0 " +
              jitter(rng, 0.7, 0.02) + " " + jitter(rng, 1.4, 0.02) +
              "\nchiralities = 1 -1\ndistances = " + jitter(rng, 1.0, 0.02) + " " +
              jitter(rng, 1.5, 0.02) + "\n";
    out.push_back(std::move(in));
  }
  for (int i = 0; i < 6; ++i) {
    Input in;
    in.body = "[search]\nangles = 32\nangle_offset = " + jitter(rng, 0.03, 0.02) +
              "\ndistances = " + jitter(rng, 1.2, 0.02) + " " + jitter(rng, 1.7, 0.02) +
              "\nradii = " + jitter(rng, 0.22, 0.02) + " " + jitter(rng, 0.18, 0.02) + " " +
              jitter(rng, 0.15, 0.02) +
              "\nprograms = algorithm4 square-spiral\nhorizon_rule = guaranteed-rounds+1\n";
    out.push_back(std::move(in));
  }
  {
    Input in;
    const char* fleets[3][4] = {{"1 1", "1.5 1", "2 1", nullptr},
                                {"1 1", "1 0.5", "1 0.75", nullptr},
                                {"1 1", "2 1", "1 0.5", "1.5 0.75"}};
    for (const auto& fleet : fleets) {
      in.body += "[gather.add]\nring_radius = " + jitter(rng, 1.0, 0.02) +
                 "\nring_phase = " + jitter(rng, 0.1, 0.5) + "\nvisibility = " +
                 jitter(rng, 0.2, 0.02) +
                 "\nalgorithm = algorithm7\ncontact_max_time = 2e3\ngather_max_time = 4e3\n";
      for (const char* robot : fleet) {
        if (robot != nullptr) in.body += std::string("robot = ") + robot + "\n";
      }
    }
    out.push_back(std::move(in));
  }
  for (int i = 0; i < 8; ++i) {
    Input in;
    in.body = "[linear]\nmode = zigzag-search\nvisibility = 1e-3\ndistances = " +
              jitter(rng, 1.5, 0.02) + " -" + jitter(rng, 2.5, 0.02) + " " +
              jitter(rng, 5.0, 0.02) + " " + jitter(rng, 10.0, 0.02) +
              "\nhorizon_rule = zigzag-reach+1\n\n[linear.add]\nmode = "
              "linear-rendezvous\nspeed = " +
              jitter(rng, 1.5, 0.02) +
              "\ntarget = 1.0\nvisibility = 0.05\nmax_time = 1e4\n";
    out.push_back(std::move(in));
  }
  for (int i = 0; i < 6; ++i) {
    Input in;
    in.body = "[coverage]\ndisk_radius = " + jitter(rng, 1.5, 0.02) +
              "\nvisibility = " + jitter(rng, 0.1, 0.02) +
              "\ncell = 0.035\ncheckpoints = 16\nprograms = algorithm4 concentric "
              "square-spiral\nhorizon_rule = 2x-guaranteed-rounds\n";
    out.push_back(std::move(in));
  }
  return out;
}

std::vector<Input> warm_hit_pool(std::uint64_t seed, std::size_t count) {
  // The mix is an assumption, not measured traffic: it is the plainest
  // split the workload's description supports.  Half of the requests
  // name a built-in set, the five in turn.  The other half send an
  // inline sub-grid of a resident rendezvous grid, sized log-uniformly
  // from 4 to about 1000 cells.  csv, json and table each take a third
  // of both halves.  The split is stratified, not drawn, so every seed
  // gets the same shares and the service's capacity does not move with
  // the seed.  The seed picks the sub-grids' axis values and grids.
  Rng rng(seed ^ 0x3a17517eULL);
  const std::vector<std::string> builtins = builtin_names();
  const std::size_t inline_count = std::max<std::size_t>(1, count / 2);
  std::vector<Input> out;
  for (std::size_t i = 0; i < count; ++i) {
    Input in;
    in.format = kFormats[i % 3];
    const std::size_t k = i / 2;
    if (i % 2 == 0) {
      in.set = builtins[k % builtins.size()];
      if (in.format == std::string("csv")) in.golden = in.set + ".csv";
      out.push_back(std::move(in));
      continue;
    }
    const double q = (static_cast<double>(k) + 0.5) / static_cast<double>(inline_count);
    const double target = std::exp(std::log(4.0) + q * std::log(1000.0 / 4.0));
    const std::vector<const std::vector<std::string>*> axes = {
        &kSpeeds, &kTimeUnits, &kOrientations, &kChiralities, &kDistances};
    std::vector<std::size_t> sizes(axes.size(), 0);
    double remaining = target;
    const std::size_t first = rng.range(0, axes.size() - 1);
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const std::size_t axis = (first + a) % axes.size();
      const double share = std::pow(remaining, 1.0 / static_cast<double>(axes.size() - a));
      sizes[axis] = std::clamp<std::size_t>(static_cast<std::size_t>(std::lround(share)), 1,
                                            axes[axis]->size());
      remaining /= static_cast<double>(sizes[axis]);
    }
    in.body = rendezvous_body(k % 2 == 0 ? "hits-" + std::to_string(k % 7) : "",
                              kVisibilities[rng.range(0, kVisibilities.size() - 1)],
                              pick(rng, kSpeeds, sizes[0]), pick(rng, kTimeUnits, sizes[1]),
                              pick(rng, kOrientations, sizes[2]),
                              pick(rng, kChiralities, sizes[3]), pick(rng, kDistances, sizes[4]));
    out.push_back(std::move(in));
  }
  // The order is the same for every seed, so the large requests, and the
  // queueing behind them, fall at the same places in every run.
  Rng order(0x0dde7ULL);
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[order.range(0, i - 1)]);
  }
  return out;
}

std::string churn_resident_file() { return "universe-churn.rvcache"; }

std::vector<Input> miss_churn_bodies(std::uint64_t seed, std::size_t count) {
  Rng rng(seed ^ 0xc4a211ULL);
  const std::vector<std::string> names = {"churn-a", "churn-b", "churn-c", ""};
  std::vector<std::string> novel;
  std::vector<Input> out;
  for (std::size_t j = 0; j < count; ++j) {
    // Speeds above the universe's are novel; each body adds one and
    // reuses one an earlier body introduced, plus one resident speed.
    novel.push_back(num(2.0 + 0.001 * static_cast<double>(j + 1) +
                        std::round(rng.unit() * 1000.0) * 1e-7));
    std::vector<std::string> speeds = {kSpeeds[rng.range(0, kSpeeds.size() - 1)]};
    if (j > 0) speeds.push_back(novel[rng.range(0, j - 1)]);
    speeds.push_back(novel[j]);
    Input in;
    in.format = kFormats[j % 3];
    in.body = rendezvous_body(names[rng.range(0, names.size() - 1)], kChurnVisibility,
                              speeds, pick(rng, kTimeUnits, 2),
                              pick(rng, kOrientations, 2), pick(rng, kChiralities, 1),
                              kChurnDistances);
    out.push_back(std::move(in));
  }
  return out;
}

}  // namespace perfbench
