#include "bench_compare_lib.hpp"

#include "util/report_cells.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>

namespace emc::tools {

namespace {

using util::JsonValue;

/// "[3 items]"-style summary, built by appending: gcc 12 warns falsely
/// (-Wrestrict) on a literal + std::string temporary at -O3.
std::string count_of(char open, std::size_t n, const char* close) {
  std::string out(1, open);
  out += std::to_string(n);
  out += close;
  return out;
}

std::string render(const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return v.boolean ? "true" : "false";
    case JsonValue::Kind::kNumber: return util::format_double(v.number);
    case JsonValue::Kind::kString: return v.str;
    case JsonValue::Kind::kArray:
      return count_of('[', v.array.size(), " items]");
    case JsonValue::Kind::kObject:
      return count_of('{', v.object.size(), " keys}");
  }
  return "?";
}

bool is_integral(double x) {
  return std::isfinite(x) && x == std::floor(x) &&
         std::abs(x) < 9.007199254740992e15;  // 2^53: exactly representable
}

struct Walker {
  const CompareOptions& opt;
  CompareResult result;

  void add(const std::string& path, const std::string& base,
           const std::string& cand, DeltaStatus status,
           const std::string& note) {
    if (status == DeltaStatus::kFail) ++result.failures;
    if (status == DeltaStatus::kWarn) ++result.warnings;
    if (status != DeltaStatus::kOk) {
      result.deltas.push_back(Delta{path, base, cand, status, note});
    }
  }

  /// Advisory violations escalate to kFail under --strict-noise.
  DeltaStatus advisory() const {
    return opt.strict_noise ? DeltaStatus::kFail : DeltaStatus::kWarn;
  }

  void compare_number(const std::string& path, double base, double cand,
                      bool noisy) {
    ++result.compared;
    if (noisy) {
      // Band is relative to the BASELINE (falling back to the candidate
      // only when the baseline is 0), so a 2x regression is outside a
      // 0.5 band no matter which side grew.
      const double mag =
          std::abs(base) > 0.0 ? std::abs(base) : std::abs(cand);
      const double diff = std::abs(cand - base);
      if (mag > 0.0 && diff > opt.noise * mag) {
        std::ostringstream note;
        note << "outside noise band (" << util::format_double(opt.noise)
             << ")";
        add(path, util::format_double(base), util::format_double(cand),
            advisory(), note.str());
      }
      return;
    }
    if (is_integral(base) && is_integral(cand)) {
      if (base != cand) {
        add(path, util::format_double(base), util::format_double(cand),
            DeltaStatus::kFail, "deterministic counter mismatch");
      }
      return;
    }
    const double mag = std::max(std::abs(base), std::abs(cand));
    if (std::abs(cand - base) > opt.abs_tol + opt.rel_tol * mag) {
      add(path, util::format_double(base), util::format_double(cand),
          DeltaStatus::kFail, "deterministic value drifted");
    }
  }

  void compare(const std::string& path, const JsonValue& base,
               const JsonValue& cand, bool noisy) {
    if (base.kind != cand.kind) {
      ++result.compared;
      // Null on one side is the JsonWriter's NaN/Inf guard firing:
      // name it, since "kind mismatch" hides the real story.
      const bool nan_guard = base.kind == JsonValue::Kind::kNull ||
                             cand.kind == JsonValue::Kind::kNull;
      add(path, render(base), render(cand), DeltaStatus::kFail,
          nan_guard ? "null vs value (non-finite guard?)"
                    : "type changed");
      return;
    }
    switch (base.kind) {
      case JsonValue::Kind::kNull:
        ++result.compared;
        return;
      case JsonValue::Kind::kBool:
        ++result.compared;
        if (base.boolean != cand.boolean) {
          add(path, render(base), render(cand), DeltaStatus::kFail,
              "flag flipped");
        }
        return;
      case JsonValue::Kind::kString:
        ++result.compared;
        if (base.str != cand.str) {
          add(path, render(base), render(cand),
              noisy ? advisory() : DeltaStatus::kFail, "string changed");
        }
        return;
      case JsonValue::Kind::kNumber:
        compare_number(path, base.number, cand.number, noisy);
        return;
      case JsonValue::Kind::kObject:
        compare_object(path, base, cand, noisy);
        return;
      case JsonValue::Kind::kArray:
        compare_array(path, base, cand, noisy);
        return;
    }
  }

  void compare_object(const std::string& path, const JsonValue& base,
                      const JsonValue& cand, bool noisy) {
    for (const auto& [key, bval] : base.object) {
      const std::string child =
          path.empty() ? key : path + "." + key;
      if (key == "manifest") {
        compare_manifest(child, bval,
                         cand.has(key) ? &cand.object.at(key) : nullptr);
        continue;
      }
      if (!cand.has(key)) {
        add(child, render(bval), "-", DeltaStatus::kFail,
            "key missing from candidate (renamed?)");
        continue;
      }
      compare(child, bval, cand.object.at(key),
              noisy || is_noisy_key(key));
    }
    for (const auto& [key, cval] : cand.object) {
      if (!base.object.count(key)) {
        add(path.empty() ? key : path + "." + key, "-", render(cval),
            DeltaStatus::kWarn, "new key (update baseline to adopt)");
      }
    }
  }

  void compare_manifest(const std::string& path, const JsonValue& base,
                        const JsonValue* cand) {
    if (cand == nullptr) {
      add(path, "{manifest}", "-", DeltaStatus::kFail,
          "candidate has no manifest");
      return;
    }
    // Provenance (SHA, host, timestamp) legitimately differs between
    // runs; only the schema version must agree for a diff to be
    // meaningful at all.
    const bool b = base.has("schema_version");
    const bool c = cand->has("schema_version");
    if (!b || !c) {
      add(path + ".schema_version", b ? "present" : "-",
          c ? "present" : "-", DeltaStatus::kFail,
          "manifest lacks schema_version");
      return;
    }
    ++result.compared;
    const double bv = base.object.at("schema_version").number;
    const double cv = cand->object.at("schema_version").number;
    if (bv != cv) {
      add(path + ".schema_version", util::format_double(bv),
          util::format_double(cv), DeltaStatus::kFail,
          "schema version changed: reports are not comparable");
    }
  }

  void compare_array(const std::string& path, const JsonValue& base,
                     const JsonValue& cand, bool noisy) {
    // Cell-matched comparison when every baseline element is an object
    // with an identity key; positional otherwise.
    std::map<std::string, const JsonValue*> base_cells, cand_cells;
    bool keyed = !base.array.empty();
    for (const JsonValue& cell : base.array) {
      const std::string key = util::cell_identity(cell);
      if (key.empty() || base_cells.count(key)) {
        keyed = false;
        break;
      }
      base_cells[key] = &cell;
    }
    if (keyed) {
      for (const JsonValue& cell : cand.array) {
        const std::string key = util::cell_identity(cell);
        if (key.empty() || cand_cells.count(key)) {
          keyed = false;
          break;
        }
        cand_cells[key] = &cell;
      }
    }
    if (keyed) {
      for (const auto& [key, bcell] : base_cells) {
        const std::string child = path + "[" + key + "]";
        const auto it = cand_cells.find(key);
        if (it == cand_cells.end()) {
          add(child, render(*bcell), "-", DeltaStatus::kFail,
              "cell missing from candidate");
          continue;
        }
        compare(child, *bcell, *it->second, noisy);
      }
      for (const auto& [key, ccell] : cand_cells) {
        if (!base_cells.count(key)) {
          add(path + "[" + key + "]", "-", render(*ccell),
              DeltaStatus::kWarn, "new cell (update baseline to adopt)");
        }
      }
      return;
    }
    if (base.array.size() != cand.array.size()) {
      add(path, std::to_string(base.array.size()) + " items",
          std::to_string(cand.array.size()) + " items",
          noisy ? advisory() : DeltaStatus::kFail, "array length changed");
      return;
    }
    for (std::size_t i = 0; i < base.array.size(); ++i) {
      compare(path + "[" + std::to_string(i) + "]", base.array[i],
              cand.array[i], noisy);
    }
  }
};

}  // namespace

bool is_noisy_key(const std::string& key) {
  for (const char* marker :
       {"wall", "per_sec", "_ns", "_ms", "rss", "speedup", "seconds",
        "timestamp"}) {
    if (key.find(marker) != std::string::npos) return true;
  }
  return false;
}

CompareResult compare_reports(const JsonValue& baseline,
                              const JsonValue& candidate,
                              const CompareOptions& options) {
  Walker walker{options, {}};
  walker.compare("", baseline, candidate, false);
  auto severity = [](DeltaStatus s) { return s == DeltaStatus::kFail ? 0 : 1; };
  std::stable_sort(walker.result.deltas.begin(), walker.result.deltas.end(),
                   [&](const Delta& a, const Delta& b) {
                     return severity(a.status) < severity(b.status);
                   });
  return std::move(walker.result);
}

std::string markdown_report(const std::string& baseline_name,
                            const std::string& candidate_name,
                            const CompareResult& result) {
  std::ostringstream out;
  out << "## bench_compare: `" << candidate_name << "` vs baseline `"
      << baseline_name << "`\n\n";
  out << (result.ok() ? "**PASS**" : "**FAIL**") << " — "
      << result.compared << " values compared, " << result.failures
      << " deterministic regression" << (result.failures == 1 ? "" : "s")
      << ", " << result.warnings << " advisory deviation"
      << (result.warnings == 1 ? "" : "s") << ".\n\n";
  if (result.deltas.empty()) return out.str();

  constexpr std::size_t kMaxRows = 200;
  out << "| status | cell / key | baseline | candidate | note |\n"
      << "|---|---|---|---|---|\n";
  std::size_t rows = 0;
  for (const Delta& d : result.deltas) {
    if (rows++ == kMaxRows) {
      out << "| ... | " << (result.deltas.size() - kMaxRows)
          << " more rows elided | | | |\n";
      break;
    }
    out << "| " << (d.status == DeltaStatus::kFail ? "FAIL" : "warn")
        << " | `" << d.path << "` | " << d.baseline << " | "
        << d.candidate << " | " << d.note << " |\n";
  }
  return out.str();
}

}  // namespace emc::tools
