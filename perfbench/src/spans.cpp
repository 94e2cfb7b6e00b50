#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index.emplace(spans[i].id, i);
  }
  // Children's intervals, clipped to the parent, grouped by parent.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) {
      continue;
    }
    const auto it = index.find(s.parent);
    if (it == index.end()) {
      continue;
    }
    const Span& p = spans[it->second];
    const std::uint64_t lo = std::max(s.start_ns, p.start_ns);
    const std::uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) {
      kids[it->second].emplace_back(lo, hi);
    }
  }
  std::vector<std::uint64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_lo = 0;
    std::uint64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (!open || lo > cur_hi) {
        if (open) {
          covered += cur_hi - cur_lo;
        }
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (open) {
      covered += cur_hi - cur_lo;
    }
    const std::uint64_t dur = spans[i].duration_ns();
    out[i] = covered >= dur ? 0 : dur - covered;
  }
  return out;
}

std::map<std::string, std::uint64_t> SpanRecorder::self_by_name() const {
  const std::vector<std::uint64_t> self = self_times(spans_);
  std::map<std::string, std::uint64_t> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += self[i];
  }
  return out;
}

std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
SpanRecorder::duration_by_name() const {
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> out;
  for (const Span& s : spans_) {
    auto& slot = out[s.name];
    slot.first += s.duration_ns();
    slot.second += 1;
  }
  return out;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return;
  }
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%u,\"parent\":%u,\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"ctx\":%llu}\n",
                 s.name, s.id, s.parent,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.context));
  }
  std::fclose(f);
}

}  // namespace perfbench
