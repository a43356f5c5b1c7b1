#include "trace.h"

#include <cstdio>

namespace pb {

int64_t Tracer::Begin(std::string_view name, int64_t parent, int64_t op) {
  const int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t id = static_cast<int64_t>(spans_.size());
  spans_.push_back(Span{std::string(name), id, parent, op, now, -1});
  return id;
}

void Tracer::End(int64_t id) {
  const int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_ns = now;
}

std::vector<Span> Tracer::Finished(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns >= 0) out.push_back(s);
  }
  return out;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%lld,\"name\":\"%s\",\"parent\":%lld,\"op\":%lld,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<long long>(s.id), s.name.c_str(),
                 static_cast<long long>(s.parent), static_cast<long long>(s.op),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace pb
