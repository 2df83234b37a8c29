// Minimal command-line flag parsing for the tools: --key=value / --key value / --bool.
//
// Not a general-purpose library — just enough for harmony_sim's options without external
// dependencies. Unknown flags are errors (catches typos in experiment scripts).
#ifndef HARMONY_SRC_UTIL_FLAGS_H_
#define HARMONY_SRC_UTIL_FLAGS_H_

#include <climits>
#include <map>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace harmony {

class FlagParser {
 public:
  // Declares a flag with a default and a help line; returns *this for chaining.
  FlagParser& Define(const std::string& name, const std::string& default_value,
                     const std::string& help);

  // Parses argv; flags are "--name=value", "--name value", or bare "--name" (-> "true").
  // Positional arguments are rejected.
  Status Parse(int argc, const char* const* argv);

  const std::string& Get(const std::string& name) const;

  // Checked getters: the whole value must parse (util/spec.h), otherwise an actionable
  // error naming the flag and the offending text (instead of a silent zero). An integer
  // below `min_value` is an error too.
  StatusOr<int> GetCheckedInt(const std::string& name, int min_value = INT_MIN) const;
  StatusOr<double> GetCheckedDouble(const std::string& name) const;
  StatusOr<bool> GetCheckedBool(const std::string& name) const;

  std::string Usage(const std::string& program) const;

 private:
  struct Flag {
    std::string value;
    std::string default_value;
    std::string help;
  };
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
};

}  // namespace harmony

#endif  // HARMONY_SRC_UTIL_FLAGS_H_
