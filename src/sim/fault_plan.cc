#include "src/sim/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string_view>
#include <utility>

#include "src/util/rng.h"
#include "src/util/spec.h"

namespace harmony {

std::string FormatFixed(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  return buffer;
}

namespace {

// Permanent effects (duration == 0 internally) render as the literal "inf" so that the
// grammar round-trips: a rendered plan re-parses to the identical plan, and a rendered
// positive duration can never collide with the permanent sentinel.
std::string FormatDuration(double duration) {
  return duration == 0.0 ? "inf" : FormatFixed(duration);
}

// The (scale, duration) tail shared by degrade, mem, brownout and gpu_slow. Scales are
// multipliers in (0, 1]; zero, negative, out-of-range and NaN all reject. Durations are
// strictly positive seconds or the literal "inf" (permanent; internal sentinel 0.0).
Status ParseScaleAndDuration(const SpecReader& reader, const SpecField& scale,
                             const SpecField& duration, FaultEvent* e) {
  HARMONY_RETURN_IF_ERROR(
      reader.ReadDouble("scale", scale, kSpecPositive, 1.0, "in (0, 1]", &e->scale));
  if (duration.text == "inf") {
    e->duration = 0.0;
    return Status::Ok();
  }
  return reader.ReadDouble("duration", duration, kSpecPositive, kSpecMaxDouble,
                           "> 0 seconds or 'inf' (permanent)", &e->duration);
}

// Non-negative index following `prefix`, or -1 when the field is not `prefix` + digits.
int ParseIndexAfter(const std::string& text, std::string_view prefix) {
  if (text.rfind(prefix, 0) != 0) {
    return -1;
  }
  return ParseSpecInt(std::string_view(text).substr(prefix.size()), 0,
                      std::numeric_limits<int>::max())
      .value_or(-1);
}

// Parses "gpu<i>", or also "host" (encoded as gpu = -1) when `allow_host`.
Status ParseGpuField(const SpecReader& reader, const SpecField& field, bool allow_host,
                     int* gpu) {
  if (allow_host && field.text == "host") {
    *gpu = -1;
    return Status::Ok();
  }
  *gpu = ParseIndexAfter(field.text, "gpu");
  if (*gpu < 0) {
    return reader.Error(field.offset,
                        "expected a target like 'gpu2', got '" + field.text + "'");
  }
  return Status::Ok();
}

// Network-capable target for flow_flap / brownout: "gpu<i>", "host", "nic<i>" or "rack<i>".
// Exactly one of gpu/nic/rack is set (host = gpu stays -1 with nic/rack -1).
Status ParseNetworkTargetField(const SpecReader& reader, const SpecField& field,
                               FaultEvent* e) {
  for (const auto& [prefix, index] : {std::pair{"nic", &e->nic}, std::pair{"rack", &e->rack}}) {
    if (field.text.rfind(prefix, 0) == 0) {
      *index = ParseIndexAfter(field.text, prefix);
      if (*index < 0) {
        return reader.Error(field.offset, "expected a target like '" + std::string(prefix) +
                                              "0', got '" + field.text + "'");
      }
      return Status::Ok();
    }
  }
  return ParseGpuField(reader, field, /*allow_host=*/true, &e->gpu);
}

StatusOr<FaultPlan> ParseRandSpec(const SpecReader& reader, const SpecField& event) {
  RandomFaultOptions options;
  // event = "rand:key=value,key=value,..."
  HARMONY_RETURN_IF_ERROR(reader.ForEachOption(
      SpecField{event.text.substr(5), event.offset + 5}, "rand",
      {"seed", "mtbf", "horizon", "gpus", "nics", "racks", "fail", "ext", "ckpt"},
      [&](const SpecOption& o) {
        switch (o.slot) {
          case 0:
            return reader.ReadU64(o.key, o.value, &options.seed);
          case 1:
            return reader.ReadDouble(o.key, o.value, kSpecPositive, kSpecMaxDouble,
                                     "> 0 seconds", &options.mtbf);
          case 2:
            return reader.ReadDouble(o.key, o.value, kSpecPositive, kSpecMaxDouble,
                                     "> 0 seconds", &options.horizon);
          case 3:
            return reader.ReadInt(o.key, o.value, 1, kMaxSpecCount, "a positive integer",
                                  &options.num_gpus);
          case 4:
            return reader.ReadInt(o.key, o.value, 0, kMaxSpecCount,
                                  "a non-negative integer", &options.num_nics);
          case 5:
            return reader.ReadInt(o.key, o.value, 0, kMaxSpecCount,
                                  "a non-negative integer", &options.num_racks);
          case 6:
            return reader.ReadBool(o.key, o.value, &options.allow_fail_stop);
          case 7:
            return reader.ReadBool(o.key, o.value, &options.transient);
          default:
            return reader.ReadBool(o.key, o.value, &options.ckpt_faults);
        }
      }));
  return MakeRandomFaultPlan(options);
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kGpuFailStop:
      return "gpu-fail-stop";
    case FaultKind::kGpuLinkDegrade:
      return "gpu-link-degrade";
    case FaultKind::kHostLinkDegrade:
      return "host-link-degrade";
    case FaultKind::kHostMemPressure:
      return "host-mem-pressure";
    case FaultKind::kFlowFlap:
      return "flow-flap";
    case FaultKind::kLinkBrownout:
      return "link-brownout";
    case FaultKind::kGpuSlow:
      return "gpu-slow";
    case FaultKind::kCkptCorrupt:
      return "ckpt-corrupt";
  }
  return "unknown";
}

std::string FaultEvent::ToString() const {
  std::ostringstream os;
  const auto target = [this]() -> std::string {
    if (nic >= 0) {
      return "nic" + std::to_string(nic);
    }
    if (rack >= 0) {
      return "rack" + std::to_string(rack);
    }
    return gpu < 0 ? "host" : "gpu" + std::to_string(gpu);
  };
  switch (kind) {
    case FaultKind::kGpuFailStop:
      os << "fail@" << FormatFixed(time) << ":gpu" << gpu;
      break;
    case FaultKind::kGpuLinkDegrade:
      os << "degrade@" << FormatFixed(time) << ":gpu" << gpu << ":" << FormatFixed(scale)
         << ":" << FormatDuration(duration);
      break;
    case FaultKind::kHostLinkDegrade:
      os << "degrade@" << FormatFixed(time) << ":host:" << FormatFixed(scale) << ":"
         << FormatDuration(duration);
      break;
    case FaultKind::kHostMemPressure:
      os << "mem@" << FormatFixed(time) << ":" << FormatFixed(scale) << ":"
         << FormatDuration(duration);
      break;
    case FaultKind::kFlowFlap:
      os << "flow_flap@" << FormatFixed(time) << ":" << target();
      break;
    case FaultKind::kLinkBrownout:
      os << "brownout@" << FormatFixed(time) << ":" << target() << ":"
         << FormatFixed(scale) << ":" << FormatDuration(duration);
      break;
    case FaultKind::kGpuSlow:
      os << "gpu_slow@" << FormatFixed(time) << ":gpu" << gpu << ":" << FormatFixed(scale)
         << ":" << FormatDuration(duration);
      break;
    case FaultKind::kCkptCorrupt:
      os << "ckpt_corrupt@" << FormatFixed(time);
      break;
  }
  return os.str();
}

void FaultPlan::Add(FaultEvent event) {
  // Stable insertion keeps equal-time events in Add() order — the replay order contract.
  const auto pos = std::upper_bound(
      events_.begin(), events_.end(), event,
      [](const FaultEvent& a, const FaultEvent& b) { return a.time < b.time; });
  events_.insert(pos, event);
}

std::string FaultPlan::ToString() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (i > 0) {
      os << ";";
    }
    os << events_[i].ToString();
  }
  return os.str();
}

StatusOr<FaultPlan> ParseFaultSpec(const std::string& spec) {
  FaultPlan plan;
  for (const SpecField& item : SplitSpec(spec, ';')) {
    const std::string& event = item.text;
    const std::size_t offset = item.offset;
    if (event.empty()) {
      continue;
    }
    const SpecReader reader("fault event '" + event + "'", "--faults");
    if (event.rfind("rand:", 0) == 0) {
      StatusOr<FaultPlan> random = ParseRandSpec(reader, item);
      if (!random.ok()) {
        return random.status();
      }
      for (const FaultEvent& e : random.value().events()) {
        plan.Add(e);
      }
      continue;
    }
    const auto at = event.find('@');
    if (at == std::string::npos) {
      return reader.Error(offset, "expected '<kind>@<time>:...'");
    }
    const std::string kind = event.substr(0, at);
    const std::vector<SpecField> fields = SplitSpec(event.substr(at + 1), ':', offset + at + 1);
    FaultEvent e;
    HARMONY_RETURN_IF_ERROR(reader.ReadDouble("time", fields[0], 0.0, kSpecMaxDouble,
                                              "a finite number >= 0", &e.time));
    if (kind == "fail") {
      if (fields.size() != 2) {
        return reader.Error(offset, "expected fail@<t>:gpu<i>");
      }
      HARMONY_RETURN_IF_ERROR(ParseGpuField(reader, fields[1], /*allow_host=*/false, &e.gpu));
      e.kind = FaultKind::kGpuFailStop;
    } else if (kind == "degrade") {
      if (fields.size() != 4) {
        return reader.Error(offset, "expected degrade@<t>:<gpu<i>|host>:<scale>:<dur>");
      }
      HARMONY_RETURN_IF_ERROR(ParseScaleAndDuration(reader, fields[2], fields[3], &e));
      HARMONY_RETURN_IF_ERROR(ParseGpuField(reader, fields[1], /*allow_host=*/true, &e.gpu));
      e.kind = e.gpu < 0 ? FaultKind::kHostLinkDegrade : FaultKind::kGpuLinkDegrade;
    } else if (kind == "mem") {
      if (fields.size() != 3) {
        return reader.Error(offset, "expected mem@<t>:<scale>:<dur>");
      }
      HARMONY_RETURN_IF_ERROR(ParseScaleAndDuration(reader, fields[1], fields[2], &e));
      e.kind = FaultKind::kHostMemPressure;
    } else if (kind == "flow_flap") {
      if (fields.size() != 2) {
        return reader.Error(offset, "expected flow_flap@<t>:<gpu<i>|host|nic<i>|rack<i>>");
      }
      HARMONY_RETURN_IF_ERROR(ParseNetworkTargetField(reader, fields[1], &e));
      e.kind = FaultKind::kFlowFlap;
    } else if (kind == "brownout") {
      if (fields.size() != 4) {
        return reader.Error(
            offset, "expected brownout@<t>:<gpu<i>|host|nic<i>|rack<i>>:<scale>:<dur>");
      }
      HARMONY_RETURN_IF_ERROR(ParseScaleAndDuration(reader, fields[2], fields[3], &e));
      HARMONY_RETURN_IF_ERROR(ParseNetworkTargetField(reader, fields[1], &e));
      e.kind = FaultKind::kLinkBrownout;
    } else if (kind == "gpu_slow") {
      if (fields.size() != 4) {
        return reader.Error(offset, "expected gpu_slow@<t>:gpu<i>:<scale>:<dur>");
      }
      HARMONY_RETURN_IF_ERROR(ParseGpuField(reader, fields[1], /*allow_host=*/false, &e.gpu));
      HARMONY_RETURN_IF_ERROR(ParseScaleAndDuration(reader, fields[2], fields[3], &e));
      e.kind = FaultKind::kGpuSlow;
    } else if (kind == "ckpt_corrupt") {
      if (fields.size() != 1) {
        return reader.Error(offset, "expected ckpt_corrupt@<t>");
      }
      e.kind = FaultKind::kCkptCorrupt;
    } else {
      return reader.Error(offset, "unknown fault kind '" + kind + "'");
    }
    plan.Add(e);
  }
  return plan;
}

FaultPlan MakeRandomFaultPlan(const RandomFaultOptions& options) {
  HCHECK_GT(options.mtbf, 0.0);
  HCHECK_GT(options.horizon, 0.0);
  HCHECK_GT(options.num_gpus, 0);
  FaultPlan plan;
  Rng rng(options.seed);
  const auto num_gpus = static_cast<std::uint64_t>(options.num_gpus);
  // Generated values stay above the renderer's %.3f resolution so that rendered plans
  // re-parse (a positive duration must never round down to the rejected "0.000").
  const auto draw_scale = [&rng, &options] {
    return std::max(0.001, rng.NextDouble(options.min_scale, 0.9));
  };
  const auto draw_duration = [&rng, &options] {
    return std::max(0.001, -options.mean_duration * std::log(1.0 - rng.NextDouble()));
  };
  // "gpu<i>" for i < num_gpus, or "host" (encoded -1), with equal probability; when the
  // machine has network tiers (nics=/racks=) the range widens to "nic<i>" / "rack<i>"
  // targets. Gating the widening on the options keeps pre-cluster seeds bitwise-stable.
  const auto num_nics = static_cast<std::uint64_t>(options.num_nics < 0 ? 0 : options.num_nics);
  const auto num_racks =
      static_cast<std::uint64_t>(options.num_racks < 0 ? 0 : options.num_racks);
  const auto draw_target = [&rng, num_gpus, num_nics, num_racks](FaultEvent* e) {
    const std::uint64_t t = rng.NextBounded(num_gpus + 1 + num_nics + num_racks);
    if (t < num_gpus) {
      e->gpu = static_cast<int>(t);
    } else if (t == num_gpus) {
      e->gpu = -1;
    } else if (t < num_gpus + 1 + num_nics) {
      e->nic = static_cast<int>(t - num_gpus - 1);
    } else {
      e->rack = static_cast<int>(t - num_gpus - 1 - num_nics);
    }
  };
  bool fail_stop_used = false;
  double t = 0.0;
  for (;;) {
    // Exponential inter-arrival at rate 1/mtbf. 1 - NextDouble() keeps log() off zero.
    t += -options.mtbf * std::log(1.0 - rng.NextDouble());
    if (t >= options.horizon) {
      return plan;
    }
    FaultEvent e;
    e.time = t;
    // Draw the fault class; fail-stop is deliberately rare (one per plan at most) so the
    // schedule degrades before it amputates.
    const std::uint64_t roll = rng.NextBounded(8);
    if (roll == 0 && options.allow_fail_stop && !fail_stop_used) {
      fail_stop_used = true;
      e.kind = FaultKind::kGpuFailStop;
      e.gpu = static_cast<int>(rng.NextBounded(num_gpus));
    } else {
      // Extended kinds widen the draw range only when enabled, so plans generated with
      // them off are bitwise-identical to plans from before the kinds existed.
      const std::uint64_t classes = 3u + (options.transient ? 3u : 0u) +
                                    (options.ckpt_faults ? 1u : 0u);
      const std::uint64_t which = rng.NextBounded(classes);
      const std::uint64_t ckpt_index = options.ckpt_faults ? classes - 1 : classes;
      if (which < 3) {
        e.kind = which == 0   ? FaultKind::kGpuLinkDegrade
                 : which == 1 ? FaultKind::kHostLinkDegrade
                              : FaultKind::kHostMemPressure;
        if (e.kind == FaultKind::kGpuLinkDegrade) {
          e.gpu = static_cast<int>(rng.NextBounded(num_gpus));
        }
        e.scale = draw_scale();
        e.duration = draw_duration();
      } else if (which == ckpt_index) {
        e.kind = FaultKind::kCkptCorrupt;
      } else if (which == 3) {
        e.kind = FaultKind::kFlowFlap;
        draw_target(&e);
      } else if (which == 4) {
        e.kind = FaultKind::kLinkBrownout;
        draw_target(&e);
        e.scale = draw_scale();
        e.duration = draw_duration();
      } else {
        e.kind = FaultKind::kGpuSlow;
        e.gpu = static_cast<int>(rng.NextBounded(num_gpus));
        e.scale = draw_scale();
        e.duration = draw_duration();
      }
    }
    plan.Add(e);
  }
}

}  // namespace harmony
