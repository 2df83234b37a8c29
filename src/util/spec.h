// One reader for the one-string spec grammars (--cluster, --jobs, --arrivals, --quota,
// --faults) and the checked flag getters.
//
// A spec is split into fields that remember their absolute byte offset; `key=value`
// options are matched against a fixed key table; values are parsed whole, so trailing
// garbage, out-of-range values and NaN are errors, never silent zeros. Every grammar
// reports an error in one format:
//
//   malformed <subject>: <why> (at byte <offset>; see --help for the <flag> grammar)
#ifndef HARMONY_SRC_UTIL_SPEC_H_
#define HARMONY_SRC_UTIL_SPEC_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/status.h"

namespace harmony {

// The largest count (nodes, GPUs, iterations, ...) any spec grammar accepts.
inline constexpr int kMaxSpecCount = 1 << 20;

// Bounds for ParseSpecDouble: the lower bound that means "> 0", and "no upper bound".
inline constexpr double kSpecPositive = std::numeric_limits<double>::denorm_min();
inline constexpr double kSpecMaxDouble = std::numeric_limits<double>::max();

// One field of a spec string and the absolute byte offset where it starts.
struct SpecField {
  std::string text;
  std::size_t offset = 0;
};

// Splits `text` on `sep`, keeping empty fields; offsets count from `base`, the offset of
// `text` within the whole spec.
std::vector<SpecField> SplitSpec(const std::string& text, char sep, std::size_t base = 0);

// Whole-string value parses: empty text, a sign or space the type does not take, trailing
// garbage and values outside the inclusive bounds all yield nullopt.
std::optional<int> ParseSpecInt(std::string_view text, int min, int max);
// Finite values only: NaN and infinities yield nullopt whatever the bounds.
std::optional<double> ParseSpecDouble(std::string_view text,
                                      double min = std::numeric_limits<double>::lowest(),
                                      double max = kSpecMaxDouble);
// Decimal digits only; a value above 2^64 - 1 yields nullopt instead of wrapping.
std::optional<std::uint64_t> ParseSpecU64(std::string_view text);
// true/1/yes/on or false/0/no/off.
std::optional<bool> ParseSpecBool(std::string_view text);

// One `key=value` option: `slot` is the key's index in the table it matched.
struct SpecOption {
  std::size_t slot = 0;
  std::string key;
  std::size_t offset = 0;  // where the option (its key) starts
  SpecField value;
};

// The error context of one grammar, e.g. SpecReader("cluster spec", "--cluster").
class SpecReader {
 public:
  SpecReader(std::string subject, std::string flag)
      : subject_(std::move(subject)), flag_(std::move(flag)) {}

  Status Error(std::size_t offset, const std::string& why) const;
  // "<key> must be <expected>, got '<text>'" at the value's offset.
  Status Expected(const std::string& key, const SpecField& value,
                  const std::string& expected) const;

  // Walks the comma-separated options of `options` against the key table `keys`, calling
  // `on_option` for each; its first error stops the walk. Empty options are skipped. An
  // option without '=', a key not in the table and a key given twice are errors at the
  // option's offset, naming the option "<noun> option" ("unknown job option 'x'").
  Status ForEachOption(const SpecField& options, const std::string& noun,
                       std::initializer_list<std::string_view> keys,
                       const std::function<Status(const SpecOption&)>& on_option) const;

  // Field reads: the value is stored in *out, or the Expected() error is returned.
  Status ReadInt(const std::string& key, const SpecField& value, int min, int max,
                 const std::string& expected, int* out) const;
  Status ReadDouble(const std::string& key, const SpecField& value, double min, double max,
                    const std::string& expected, double* out) const;
  Status ReadU64(const std::string& key, const SpecField& value, std::uint64_t* out) const;
  Status ReadBool(const std::string& key, const SpecField& value, bool* out) const;

 private:
  std::string subject_;
  std::string flag_;
};

}  // namespace harmony

#endif  // HARMONY_SRC_UTIL_SPEC_H_
