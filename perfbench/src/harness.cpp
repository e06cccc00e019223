#include "harness.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "util/malloc_tune.h"

namespace perfbench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// ----------------------------------------------------------- percentiles

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50);
}

std::size_t samples_beyond(std::size_t count, double q) noexcept {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(count)));
  return count - std::min(rank, count);
}

double highest_supported_percentile(std::size_t count) noexcept {
  double best = 0;
  for (const double q : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (samples_beyond(count, q) >= 10) best = q;
  }
  return best;
}

// ------------------------------------------------------------------ spans

int Tracer::begin(const char* name, int parent) {
  if (!enabled_) return -1;
  const std::int64_t t = now_ns();
  spans_.push_back({name, t, t, parent, 0});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int span) {
  if (!enabled_ || span < 0) return;
  Span& s = spans_[static_cast<std::size_t>(span)];
  s.end_ns = now_ns();
  s.busy_ns = s.end_ns - s.start_ns;
}

int Tracer::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                int parent, std::int64_t busy_ns) {
  if (!enabled_) return -1;
  spans_.push_back({name, start_ns, end_ns, parent, busy_ns});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  const std::vector<std::int64_t> self = self_times(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"busy_ns\":" << s.busy_ns
        << ",\"self_ns\":" << self[i] << "}\n";
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::vector<std::int64_t> self_times(std::span<const Span> spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].busy_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    if (parent < 0) continue;
    if (static_cast<std::size_t>(parent) >= i) {
      throw std::logic_error("span parent must precede its child");
    }
    self[static_cast<std::size_t>(parent)] -= spans[i].busy_ns;
  }
  return self;
}

std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

namespace {

/// in[i]: span i satisfies `is_top` or descends from a span that does.
/// Parents precede children, so one forward pass settles it.
template <typename IsTop>
std::vector<char> subtree(std::span<const Span> spans, IsTop&& is_top) {
  std::vector<char> in(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    in[i] = is_top(i) || (parent >= 0 && in[static_cast<std::size_t>(parent)]);
  }
  return in;
}

}  // namespace

SpanTotal total_of(std::span<const Span> spans, const char* name, int root) {
  const std::vector<char> in = subtree(spans, [&](std::size_t i) {
    return root < 0 || static_cast<int>(i) == root;
  });
  SpanTotal total;
  const std::string wanted(name);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (in[i] && wanted == spans[i].name) {
      total.busy_ns += spans[i].busy_ns;
      ++total.count;
    }
  }
  return total;
}

std::map<std::string, std::int64_t> layer_self_times(std::span<const Span> spans,
                                                     const char* under) {
  const std::string top(under);
  const std::vector<char> in =
      subtree(spans, [&](std::size_t i) { return top == spans[i].name; });
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, std::int64_t> layers;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (in[i]) layers[layer_of(spans[i].name)] += self[i];
  }
  return layers;
}

// ---------------------------------------------------------------- oracle

namespace {

constexpr const char* kFieldNames[] = {
    "vip",           "direction",    "type",      "start",
    "end",           "active_minutes", "total_sampled_packets",
    "peak_sampled_ppm", "peak_unique_remotes", "ramp_up_minutes"};

IncidentRow masked(IncidentRow row, unsigned fields) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    if ((fields & (1u << i)) == 0) row[i] = 0;
  }
  return row;
}

std::string describe(const IncidentRow& row) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < row.size(); ++i) {
    out << (i ? ", " : "") << kFieldNames[i] << "=" << row[i];
  }
  out << "}";
  return out.str();
}

}  // namespace

IncidentRow project(const dm::detect::AttackIncident& incident,
                    unsigned fields) {
  return masked({static_cast<std::int64_t>(incident.vip.value()),
                 static_cast<std::int64_t>(incident.direction),
                 static_cast<std::int64_t>(incident.type),
                 incident.start,
                 incident.end,
                 incident.active_minutes,
                 static_cast<std::int64_t>(incident.total_sampled_packets),
                 static_cast<std::int64_t>(incident.peak_sampled_ppm),
                 incident.peak_unique_remotes,
                 incident.ramp_up_minutes},
                fields);
}

IncidentRow project(const dm::serve::Event& event) {
  return masked({static_cast<std::int64_t>(event.vip), event.direction,
                 event.type, event.start, event.end, 0,
                 static_cast<std::int64_t>(event.packets), 0, event.remotes, 0},
                kEventFields);
}

std::string compare_incidents(std::vector<IncidentRow> got,
                              std::vector<IncidentRow> want) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  const std::size_t n = std::min(got.size(), want.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (got[i] != want[i]) {
      return "incident " + std::to_string(i) + " differs: got " +
             describe(got[i]) + ", oracle " + describe(want[i]);
    }
  }
  if (got.size() != want.size()) {
    return std::to_string(got.size()) + " incidents, oracle has " +
           std::to_string(want.size());
  }
  return "";
}

std::string unbalanced(std::span<const Ledger> ledgers) {
  for (const Ledger& ledger : ledgers) {
    std::uint64_t sum = 0;
    std::string parts;
    for (const std::uint64_t p : ledger.parts) {
      sum += p;
      parts += (parts.empty() ? "" : " + ") + std::to_string(p);
    }
    if (sum != ledger.total) {
      return "ledger " + ledger.name + " unbalanced: " +
             std::to_string(ledger.total) + " != " + parts;
    }
  }
  return "";
}

// ---------------------------------------------------------- byte streams

ByteSource::ByteSource(std::span<const std::uint8_t> bytes) {
  // The get area is never written through: std::streambuf only takes char*.
  char* first = const_cast<char*>(reinterpret_cast<const char*>(bytes.data()));
  setg(first, first, first + bytes.size());
}

ByteSink::int_type ByteSink::overflow(int_type c) {
  if (!traits_type::eq_int_type(c, traits_type::eof())) {
    out_.push_back(static_cast<std::uint8_t>(traits_type::to_char_type(c)));
  }
  return traits_type::not_eof(c);
}

std::streamsize ByteSink::xsputn(const char* s, std::streamsize n) {
  const auto* first = reinterpret_cast<const std::uint8_t*>(s);
  out_.insert(out_.end(), first, first + n);
  return n;
}

// ---------------------------------------------------------------- memory

void reset_peak_rss() {
  dm::util::release_free_heap();
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) throw std::runtime_error("cannot reset VmHWM via /proc/self/clear_refs");
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// ---------------------------------------------------------------- result

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, std::span<const Metric> metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

}  // namespace perfbench
