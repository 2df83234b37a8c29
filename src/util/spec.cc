#include "src/util/spec.h"

#include <charconv>
#include <cmath>

namespace harmony {
namespace {

// std::from_chars over the whole of `text`: no leading space or '+', no trailing bytes.
template <typename T, typename... Format>
std::optional<T> ParseWhole(std::string_view text, Format... format) {
  T value{};
  const char* end = text.data() + text.size();
  const std::from_chars_result result = std::from_chars(text.data(), end, value, format...);
  if (text.empty() || result.ec != std::errc() || result.ptr != end) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

std::vector<SpecField> SplitSpec(const std::string& text, char sep, std::size_t base) {
  std::vector<SpecField> out;
  std::string::size_type start = 0;
  for (;;) {
    const auto pos = text.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(SpecField{text.substr(start), base + start});
      return out;
    }
    out.push_back(SpecField{text.substr(start, pos - start), base + start});
    start = pos + 1;
  }
}

std::optional<int> ParseSpecInt(std::string_view text, int min, int max) {
  const std::optional<int> value = ParseWhole<int>(text, 10);
  if (!value || *value < min || *value > max) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> ParseSpecDouble(std::string_view text, double min, double max) {
  const std::optional<double> value = ParseWhole<double>(text, std::chars_format::general);
  if (!value || !std::isfinite(*value) || *value < min || *value > max) {
    return std::nullopt;
  }
  return value;
}

std::optional<std::uint64_t> ParseSpecU64(std::string_view text) {
  return ParseWhole<std::uint64_t>(text, 10);
}

std::optional<bool> ParseSpecBool(std::string_view text) {
  if (text == "true" || text == "1" || text == "yes" || text == "on") {
    return true;
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    return false;
  }
  return std::nullopt;
}

Status SpecReader::Error(std::size_t offset, const std::string& why) const {
  return InvalidArgumentError("malformed " + subject_ + ": " + why + " (at byte " +
                              std::to_string(offset) + "; see --help for the " + flag_ +
                              " grammar)");
}

Status SpecReader::Expected(const std::string& key, const SpecField& value,
                            const std::string& expected) const {
  return Error(value.offset, key + " must be " + expected + ", got '" + value.text + "'");
}

Status SpecReader::ForEachOption(
    const SpecField& options, const std::string& noun,
    std::initializer_list<std::string_view> keys,
    const std::function<Status(const SpecOption&)>& on_option) const {
  std::vector<bool> seen(keys.size(), false);
  for (const SpecField& field : SplitSpec(options.text, ',', options.offset)) {
    if (field.text.empty()) {
      continue;
    }
    const auto eq = field.text.find('=');
    if (eq == std::string::npos) {
      return Error(field.offset, "expected key=value, got '" + field.text + "'");
    }
    SpecOption option;
    option.key = field.text.substr(0, eq);
    option.offset = field.offset;
    option.value = SpecField{field.text.substr(eq + 1), field.offset + eq + 1};
    while (option.slot < keys.size() && keys.begin()[option.slot] != option.key) {
      ++option.slot;
    }
    if (option.slot == keys.size()) {
      return Error(field.offset, "unknown " + noun + " option '" + option.key + "'");
    }
    if (seen[option.slot]) {
      return Error(field.offset, "duplicate " + noun + " option '" + option.key + "'");
    }
    seen[option.slot] = true;
    HARMONY_RETURN_IF_ERROR(on_option(option));
  }
  return Status::Ok();
}

Status SpecReader::ReadInt(const std::string& key, const SpecField& value, int min, int max,
                           const std::string& expected, int* out) const {
  const std::optional<int> parsed = ParseSpecInt(value.text, min, max);
  if (!parsed) {
    return Expected(key, value, expected);
  }
  *out = *parsed;
  return Status::Ok();
}

Status SpecReader::ReadDouble(const std::string& key, const SpecField& value, double min,
                              double max, const std::string& expected, double* out) const {
  const std::optional<double> parsed = ParseSpecDouble(value.text, min, max);
  if (!parsed) {
    return Expected(key, value, expected);
  }
  *out = *parsed;
  return Status::Ok();
}

Status SpecReader::ReadU64(const std::string& key, const SpecField& value,
                           std::uint64_t* out) const {
  const std::optional<std::uint64_t> parsed = ParseSpecU64(value.text);
  if (!parsed) {
    return Expected(key, value, "an unsigned integer");
  }
  *out = *parsed;
  return Status::Ok();
}

Status SpecReader::ReadBool(const std::string& key, const SpecField& value, bool* out) const {
  const std::optional<bool> parsed = ParseSpecBool(value.text);
  if (!parsed) {
    return Expected(key, value, "0, 1, true or false");
  }
  *out = *parsed;
  return Status::Ok();
}

}  // namespace harmony
