#include "util.hpp"

#include <unistd.h>

#include <cstdio>
#include <fstream>

namespace pb {

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

double host_steal_s() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field = 0.0;
  stat >> cpu;  // "cpu": user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && (stat >> field); ++i) {
  }
  return cpu == "cpu" ? field / static_cast<double>(::sysconf(_SC_CLK_TCK)) : 0.0;
}

std::vector<Span> Trace::take(const std::string& name, Clock::time_point from,
                              Clock::time_point to) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const Span& s : spans_)
    if (s.name == name && s.start >= from && s.start < to) out.push_back(s);
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  return out;
}

void Trace::write(const std::string& path, Clock::time_point origin) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  for (const Span& s : spans_)
    std::fprintf(f,
                 "{\"name\":\"%s\",\"group\":%d,\"start_us\":%.1f,"
                 "\"end_us\":%.1f,\"rows\":%u,\"dist_evals\":%llu}\n",
                 s.name.c_str(), s.group,
                 seconds_between(origin, s.start) * 1e6,
                 seconds_between(origin, s.end) * 1e6, s.rows,
                 static_cast<unsigned long long>(s.stats.dist_evals()));
  std::fclose(f);
}

}  // namespace pb
