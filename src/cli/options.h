// Command-line and config-file option handling for the hplmxp driver.
//
// Options come from three layers, later layers overriding earlier ones:
//   1. built-in defaults,
//   2. a config file of "key value" lines (the spiritual successor of
//      HPL.dat; '#' starts a comment),
//   3. --key=value / --key value / --flag command-line arguments.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/common.h"

namespace hplmxp::cli {

/// Parsed option bag: string keys to string values ("" for bare flags).
class Options {
 public:
  /// Parses argv-style arguments after the subcommand. Accepts
  /// "--key=value", "--key value" (when the next token is not another
  /// option), and bare "--flag". Positional arguments are collected in
  /// order. Throws CheckError on malformed input.
  static Options parseArgs(const std::vector<std::string>& args);

  /// Parses a config file ("key value" lines; '#' comments; blank lines
  /// ignored). Throws CheckError if unreadable.
  static Options parseFile(const std::string& path);

  /// Overlays `other` on top of this (other wins). Keys already read on
  /// `other` count as read here too.
  void merge(const Options& other);

  [[nodiscard]] bool has(const std::string& key) const;

  /// Typed getters with defaults. Throw CheckError on malformed values.
  [[nodiscard]] std::string getString(const std::string& key,
                                      const std::string& fallback) const;
  [[nodiscard]] index_t getInt(const std::string& key,
                               index_t fallback) const;
  [[nodiscard]] double getDouble(const std::string& key,
                                 double fallback) const;
  [[nodiscard]] bool getBool(const std::string& key, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Keys that were set but never read — typo detection for the driver.
  [[nodiscard]] std::vector<std::string> unusedKeys() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::map<std::string, bool> touched_;
};

}  // namespace hplmxp::cli
