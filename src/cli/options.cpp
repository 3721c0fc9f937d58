#include "cli/options.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

namespace hplmxp::cli {

namespace {
bool looksLikeOption(const std::string& s) {
  return s.size() >= 3 && s[0] == '-' && s[1] == '-';
}
}  // namespace

Options Options::parseArgs(const std::vector<std::string>& args) {
  Options out;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (!looksLikeOption(arg)) {
      out.positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      const std::string key = body.substr(0, eq);
      HPLMXP_REQUIRE(!key.empty(), "empty option name");
      out.values_[key] = body.substr(eq + 1);
      continue;
    }
    // "--key value" when the next token exists and is not an option;
    // otherwise a bare flag.
    if (i + 1 < args.size() && !looksLikeOption(args[i + 1])) {
      out.values_[body] = args[i + 1];
      ++i;
    } else {
      out.values_[body] = "";
    }
  }
  return out;
}

Options Options::parseFile(const std::string& path) {
  std::ifstream in(path);
  HPLMXP_REQUIRE(in.good(), "cannot open config file");
  Options out;
  std::string line;
  index_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream ss(line);
    std::string key, value;
    if (!(ss >> key)) {
      continue;  // blank line
    }
    if (!(ss >> value)) {
      value = "";  // flag-style entry
    }
    std::string extra;
    HPLMXP_REQUIRE(!(ss >> extra),
                   "config line has trailing tokens (one key value per "
                   "line)");
    out.values_[key] = value;
  }
  return out;
}

void Options::merge(const Options& other) {
  for (const auto& [k, v] : other.values_) {
    values_[k] = v;
  }
  // A key read on the overlay (--config, read to find the file) stays read.
  touched_.insert(other.touched_.begin(), other.touched_.end());
  for (const auto& p : other.positional_) {
    positional_.push_back(p);
  }
}

bool Options::has(const std::string& key) const {
  const auto it = values_.find(key);
  if (it != values_.end()) {
    touched_[key] = true;
    return true;
  }
  return false;
}

std::string Options::getString(const std::string& key,
                               const std::string& fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  touched_[key] = true;
  return it->second;
}

index_t Options::getInt(const std::string& key, index_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  touched_[key] = true;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  HPLMXP_REQUIRE(end != nullptr && *end == '\0' && !it->second.empty(),
                 "option is not an integer");
  return static_cast<index_t>(v);
}

double Options::getDouble(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  touched_[key] = true;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  HPLMXP_REQUIRE(end != nullptr && *end == '\0' && !it->second.empty(),
                 "option is not a number");
  return v;
}

bool Options::getBool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  touched_[key] = true;
  const std::string& v = it->second;
  if (v.empty() || v == "1" || v == "true" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "0" || v == "false" || v == "no" || v == "off") {
    return false;
  }
  throw CheckError("option is not a boolean: " + key + "=" + v);
}

std::vector<std::string> Options::unusedKeys() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : values_) {
    (void)v;
    if (touched_.find(k) == touched_.end()) {
      out.push_back(k);
    }
  }
  return out;
}

}  // namespace hplmxp::cli
