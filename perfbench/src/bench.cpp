#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[index];
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

Tail tail(std::vector<double> values) {
  Tail t;
  t.samples = values.size();
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  // Ten samples strictly above the reported one, but not below p50.
  const std::size_t median_index = (values.size() + 1) / 2 - 1;
  const std::size_t index =
      values.size() >= 11 ? std::max(values.size() - 11, median_index) : median_index;
  t.value = values[index];
  t.pct = 100.0 * static_cast<double>(index + 1) / static_cast<double>(values.size());
  return t;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  double pages = 0.0;
  double resident = 0.0;
  statm >> pages >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE));
}

double cpu_seconds() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    getrusage(who, &usage);
    total += static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
  }
  return total;
}

PinToCpu::PinToCpu(int cpu) {
  if (cpu < 0 || sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
}

PinToCpu::~PinToCpu() {
  if (pinned_) (void)sched_setaffinity(0, sizeof saved_, &saved_);
}

// ---------------------------------------------------------------------

void Report::set(const std::string& name, double value, const std::string& unit) {
  values_[name] = {value, unit};
}

std::string Report::json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                         const std::vector<Metric>& schema) const {
  for (const auto& [name, value] : values_) {
    const auto in_schema = std::find_if(schema.begin(), schema.end(),
                                        [&](const Metric& m) { return m.name == name; });
    if (in_schema == schema.end() || in_schema->unit != value.second) {
      throw std::logic_error("metric '" + name + "' (" + value.second +
                             ") is not in the schema");
    }
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < schema.size(); ++i) {
    const auto found = values_.find(schema[i].name);
    if (found == values_.end()) {
      throw std::logic_error("metric '" + schema[i].name + "' was never measured");
    }
    const double value = found->second.first;
    char text[64];
    // Every digit as measured; non-finite values cannot be JSON.
    std::snprintf(text, sizeof text, "%.17g", std::isfinite(value) ? value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + schema[i].name + "\": {\"value\": " + text + ", \"unit\": \"" +
           schema[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

// ---------------------------------------------------------------------

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::range(std::uint64_t lo, std::uint64_t hi) {
  return lo + next() % (hi - lo + 1);
}

double Rng::unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::string num(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  if (result.ec != std::errc()) throw std::runtime_error("num: to_chars failed");
  return std::string(buf, result.ptr);
}

// ---------------------------------------------------------------------

Tracer::Scope::Scope(Tracer& tracer, const char* layer, const char* name)
    : tracer_(tracer), index_(static_cast<int>(tracer.spans_.size())) {
  Span span;
  span.layer = layer;
  span.name = name;
  span.parent = tracer.open_;
  span.request = tracer.request_;
  tracer.spans_.push_back(span);
  tracer.open_ = index_;
  tracer.spans_[static_cast<std::size_t>(index_)].start = now_s();
}

Tracer::Scope::~Scope() {
  Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
  span.end = now_s();
  tracer_.open_ = span.parent;
}

double Tracer::total(const std::string& name, std::size_t* count) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const Span& s : spans_) {
    if (name == s.name) {
      sum += s.end - s.start;
      ++n;
    }
  }
  if (count != nullptr) *count = n;
  return sum;
}

std::map<std::string, double> Tracer::self_times() const {
  std::map<std::string, double> self;
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].layer] += (spans_[i].end - spans_[i].start) - child[i];
  }
  return self;
}

double Tracer::root_total() const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0) sum += s.end - s.start;
  }
  return sum;
}

void Tracer::write(const std::filesystem::path& path) const {
  std::ofstream out(path);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[320];
    std::snprintf(line, sizeof line,
                  "{\"id\":%zu,\"layer\":\"%s\",\"name\":\"%s\",\"start_us\":%.3f,"
                  "\"end_us\":%.3f,\"parent\":%d,\"request\":%llu}\n",
                  i, s.layer, s.name, (s.start - origin) * 1e6, (s.end - origin) * 1e6,
                  s.parent, static_cast<unsigned long long>(s.request));
    out << line;
  }
}

}  // namespace perfbench
