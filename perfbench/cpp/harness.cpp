#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "serve/json.h"
#include "util/clock.h"

namespace perfbench {

namespace {

std::string jsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

double now() { return hplmxp::steadyClock().nowSeconds(); }

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB to MB
}

std::string hashHex(const std::vector<double>& values) {
  const auto* p = reinterpret_cast<const unsigned char*>(values.data());
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < values.size() * sizeof(double); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

std::string jsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += items[i];
  }
  return out + "]";
}

std::string jsonNumbers(const std::vector<double>& values) {
  std::vector<std::string> items;
  items.reserve(values.size());
  for (const double v : values) {
    items.push_back(jsonNumber(v));
  }
  return jsonArray(items);
}

JsonObject& JsonObject::raw(const std::string& key, const std::string& json) {
  if (!body_.empty()) {
    body_ += ',';
  }
  body_ += hplmxp::serve::jsonQuote(key);
  body_ += ':';
  body_ += json;
  return *this;
}

JsonObject& JsonObject::num(const std::string& key, double value) {
  return raw(key, jsonNumber(value));
}

JsonObject& JsonObject::count(const std::string& key, std::uint64_t value) {
  return raw(key, std::to_string(value));
}

JsonObject& JsonObject::flag(const std::string& key, bool value) {
  return raw(key, value ? "true" : "false");
}

JsonObject& JsonObject::text(const std::string& key,
                             const std::string& value) {
  return raw(key, hplmxp::serve::jsonQuote(value));
}

std::string JsonObject::str() const { return "{" + body_ + "}"; }

void Checks::add(const std::string& name, bool ok,
                 const std::string& detail) {
  items_.push_back(
      JsonObject().text("name", name).flag("ok", ok).text("detail", detail)
          .str());
}

std::string Checks::json() const { return jsonArray(items_); }

std::uint64_t SpanRecorder::add(const std::string& name, double start,
                                double end, std::uint64_t op,
                                std::uint64_t parent, bool derived) {
  spans_.push_back({name, start, end, op, parent, derived});
  return spans_.size();
}

void SpanRecorder::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write span trace " + path);
  }
  double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (const Span& s : spans_) {
    origin = std::min(origin, s.start);
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonObject args;
    args.count("span", i + 1).count("parent", s.parent).count("op", s.op)
        .flag("derived", s.derived);
    // Chrome trace events carry microseconds; "X" is a complete event.
    out << (i > 0 ? ",\n" : "\n")
        << JsonObject()
               .text("name", s.name)
               .text("ph", "X")
               .num("ts", (s.start - origin) * 1e6)
               .num("dur", (s.end - s.start) * 1e6)
               .count("pid", 1)
               .count("tid", s.op)
               .raw("args", args.str())
               .str();
  }
  out << "\n]}\n";
  if (!out) {
    throw std::runtime_error("failed writing span trace " + path);
  }
}

}  // namespace perfbench
