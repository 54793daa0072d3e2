#include "src/obs/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <utility>

namespace msgorder {

namespace {

/// Deterministic short rendering of a double (no locale, no trailing
/// noise) — the golden-file test depends on this being stable.  Counts
/// print exactly: an integral value below 2^53 (where doubles are still
/// exact integers) never falls into %.6g's scientific notation.
std::string fmt(double v) {
  char buf[64];
  if (std::fabs(v) < 9007199254740992.0 && v == std::trunc(v)) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  return buf;
}

std::string fmt_pct(double frac) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", frac * 100.0);
  return buf;
}

/// Final component of a flattened path ("rows[n=200].direct_sync_speedup"
/// -> "direct_sync_speedup").
std::string_view leaf_name(std::string_view path) {
  const std::size_t dot = path.rfind('.');
  return dot == std::string_view::npos ? path : path.substr(dot + 1);
}

enum class Direction { kHigherBetter, kLowerBetter, kNeutral };

Direction direction_of(std::string_view leaf) {
  // Rate fields ("events_per_second") contain the substring "seconds",
  // so the higher-is-better checks must run before the timing ones.
  if (leaf.find("speedup") != std::string_view::npos ||
      leaf.find("per_second") != std::string_view::npos) {
    return Direction::kHigherBetter;
  }
  if (leaf.find("seconds") != std::string_view::npos ||
      leaf.find("latency") != std::string_view::npos ||
      leaf.find("delay") != std::string_view::npos) {
    return Direction::kLowerBetter;
  }
  // Diagnostic counts from msgorder.lint/1 artifacts.
  if (leaf == "error" || leaf == "warning" || leaf == "hint" ||
      leaf == "errors" || leaf == "warnings" || leaf == "hints") {
    return Direction::kLowerBetter;
  }
  return Direction::kNeutral;
}

/// Per-field diff metadata declared by the artifact itself (ISSUE 7):
/// a top-level "field_meta" object mapping leaf names to
/// {"direction": "higher"|"lower"|"neutral", "noise_floor": frac}.
struct FieldMeta {
  Direction direction = Direction::kNeutral;
  double noise_floor = 0.0;
};

std::map<std::string, FieldMeta, std::less<>> collect_field_meta(
    const JsonValue& doc) {
  std::map<std::string, FieldMeta, std::less<>> out;
  if (!doc.is_object()) return out;
  const JsonValue* meta = doc.find("field_meta");
  if (meta == nullptr || !meta->is_object()) return out;
  for (const auto& [name, m] : meta->as_object()) {
    if (!m.is_object()) continue;
    FieldMeta fm;
    // An entry that only declares a noise_floor keeps the name
    // heuristic's direction instead of degrading to neutral.
    const std::string dir =
        m.string_at("direction").value_or(std::string());
    fm.direction = dir == "higher"    ? Direction::kHigherBetter
                   : dir == "lower"   ? Direction::kLowerBetter
                   : dir == "neutral" ? Direction::kNeutral
                                      : direction_of(name);
    fm.noise_floor = m.number_at("noise_floor").value_or(0.0);
    out.emplace(name, fm);
  }
  return out;
}

/// Render " <name>=<value>" for an optionally-present histogram or
/// percentile member: absent -> nothing, null -> "n/a" (never 0).
void append_member(std::ostringstream& out, const JsonValue& h,
                   const char* name) {
  const JsonValue* m = h.find(name);
  if (m == nullptr) return;
  out << " " << name << "=" << (m->is_number() ? fmt(m->as_number()) : "n/a");
}

void summarize_histogram_line(std::ostringstream& out,
                              const std::string& name,
                              const JsonValue& h) {
  out << "    " << name << ": count=" << fmt(h.number_at("count").value_or(0));
  append_member(out, h, "mean");
  append_member(out, h, "p50");
  append_member(out, h, "p99");
  append_member(out, h, "max");
  out << "\n";
}

/// Aligned text heatmap of the per-channel inhibition matrix (ISSUE 7):
/// one blocker-by-blocked table per hold kind, cell = total held time.
/// Row "?" collects segments whose reason names no blocking process.
std::string render_heatmap_text(const JsonValue& hm) {
  const JsonValue* cells = hm.find("cells");
  if (cells == nullptr || !cells->is_array() || cells->as_array().empty()) {
    return "";
  }
  struct Matrix {
    std::set<std::int64_t> blockers;  // -1 = no blocking process
    std::set<std::int64_t> blocked;
    std::map<std::pair<std::int64_t, std::int64_t>, double> total;
  };
  std::map<std::string, Matrix> kinds;
  for (const JsonValue& cell : cells->as_array()) {
    if (!cell.is_object()) continue;
    const std::string kind = cell.string_at("kind").value_or("?");
    const auto blocker =
        static_cast<std::int64_t>(cell.number_at("blocker").value_or(-1));
    const auto blocked =
        static_cast<std::int64_t>(cell.number_at("blocked").value_or(-1));
    Matrix& m = kinds[kind];
    m.blockers.insert(blocker);
    m.blocked.insert(blocked);
    m.total[{blocker, blocked}] += cell.number_at("total").value_or(0);
  }
  const auto label = [](std::int64_t p) {
    if (p < 0) return std::string("?");
    std::string text = "P";
    text += std::to_string(p);
    return text;
  };
  std::ostringstream out;
  out << "  inhibition heatmap (blocker x blocked, total held):\n";
  for (const auto& [kind, m] : kinds) {
    out << "    " << kind << ":\n";
    std::size_t width = 0;
    for (const std::int64_t b : m.blocked) {
      width = std::max(width, label(b).size());
    }
    for (const auto& [key, total] : m.total) {
      width = std::max(width, fmt(total).size());
    }
    std::size_t row_width = 1;  // "?"
    for (const std::int64_t b : m.blockers) {
      row_width = std::max(row_width, label(b).size());
    }
    const auto pad = [&out](const std::string& s, std::size_t w) {
      for (std::size_t i = s.size(); i < w; ++i) out << ' ';
      out << s;
    };
    out << "      ";
    pad("", row_width);
    for (const std::int64_t b : m.blocked) {
      out << "  ";
      pad(label(b), width);
    }
    out << "\n";
    for (const std::int64_t blocker : m.blockers) {
      out << "      ";
      pad(label(blocker), row_width);
      for (const std::int64_t blocked : m.blocked) {
        out << "  ";
        const auto it = m.total.find({blocker, blocked});
        pad(it == m.total.end() ? "." : fmt(it->second), width);
      }
      out << "\n";
    }
  }
  return out.str();
}

std::string summarize_run_report(const JsonValue& doc) {
  std::ostringstream out;
  out << "run report: protocol=" << doc.string_at("protocol").value_or("?")
      << " processes=" << fmt(doc.number_at("n_processes").value_or(0))
      << " seed=" << fmt(doc.number_at("seed").value_or(0)) << "\n";
  out << "  completed: "
      << (doc.bool_at("completed").value_or(false) ? "yes" : "no");
  if (const auto err = doc.string_at("error"); err && !err->empty()) {
    out << " (" << *err << ")";
  }
  out << "\n";
  if (const JsonValue* msgs = doc.find("messages"); msgs != nullptr) {
    out << "  messages: universe="
        << fmt(msgs->number_at("universe").value_or(0))
        << " invoked=" << fmt(msgs->number_at("invoked").value_or(0))
        << " delivered=" << fmt(msgs->number_at("delivered").value_or(0))
        << "\n";
  }
  if (const JsonValue* lat = doc.find("latency"); lat != nullptr) {
    out << "  latency: mean=" << fmt(lat->number_at("mean").value_or(0))
        << " max=" << fmt(lat->number_at("max").value_or(0));
    if (const JsonValue* pct = lat->find("percentiles"); pct != nullptr) {
      if (pct->is_object()) {
        append_member(out, *pct, "p50");
        append_member(out, *pct, "p90");
        append_member(out, *pct, "p99");
      } else {
        // A null percentiles section (no latency histogram attached)
        // must read as missing data, never as zeros.
        out << " p50=n/a p90=n/a p99=n/a";
      }
    }
    out << "\n";
  }
  if (const JsonValue* attr = doc.find("attribution");
      attr != nullptr && attr->is_object()) {
    out << "  attribution: segments="
        << fmt(attr->number_at("segments").value_or(0)) << "\n";
    if (const JsonValue* by = attr->find("held_by_reason");
        by != nullptr && by->is_object()) {
      for (const auto& [reason, total] : by->as_object()) {
        if (total.is_number() && total.as_number() > 0) {
          out << "    " << reason << ": held " << fmt(total.as_number())
              << "\n";
        }
      }
    }
  }
  if (const JsonValue* hm = doc.find("inhibition_heatmap");
      hm != nullptr && hm->is_object()) {
    out << render_heatmap_text(*hm);
  }
  if (const JsonValue* prof = doc.find("profile");
      prof != nullptr && prof->is_object()) {
    out << "  profile: engine=" << prof->string_at("engine").value_or("?")
        << " shards=" << fmt(prof->number_at("shards").value_or(0))
        << " windows=" << fmt(prof->number_at("windows").value_or(0))
        << " events=" << fmt(prof->number_at("events_total").value_or(0));
    if (const JsonValue* stalls = prof->find("stalls");
        stalls != nullptr && stalls->is_object()) {
      out << " stalls(lookahead/empty/backpressure)="
          << fmt(stalls->number_at("lookahead").value_or(0)) << "/"
          << fmt(stalls->number_at("empty_heap").value_or(0)) << "/"
          << fmt(stalls->number_at("ring_backpressure").value_or(0));
    }
    out << "\n";
  }
  if (const JsonValue* mon = doc.find("monitor");
      mon != nullptr && mon->is_object()) {
    out << "  monitor: violated="
        << (mon->bool_at("violated").value_or(false) ? "yes" : "no")
        << " events_seen=" << fmt(mon->number_at("events_seen").value_or(0))
        << "\n";
  }
  if (const JsonValue* metrics = doc.find("metrics");
      metrics != nullptr && metrics->is_object()) {
    if (const JsonValue* hists = metrics->find("histograms");
        hists != nullptr && hists->is_object()) {
      out << "  delay histograms:\n";
      for (const auto& [name, h] : hists->as_object()) {
        if (name.find("delay.") != std::string::npos && h.is_object() &&
            h.number_at("count").value_or(0) > 0) {
          summarize_histogram_line(out, name, h);
        }
      }
    }
  }
  return out.str();
}

std::string summarize_bench(const JsonValue& doc,
                            const std::string& schema) {
  std::ostringstream out;
  out << "bench report: schema=" << schema << "\n";
  const JsonValue* rows = doc.find("rows");
  if (rows == nullptr || !rows->is_array()) {
    out << "  (no rows array)\n";
    return out.str();
  }
  for (const JsonValue& row : rows->as_array()) {
    if (!row.is_object()) continue;
    out << "  ";
    if (const auto n = row.number_at("n_messages")) {
      out << "n=" << fmt(*n);
    } else if (const auto s = row.number_at("shards")) {
      out << "shards=" << fmt(*s);
    } else if (const auto p = row.string_at("protocol")) {
      out << *p;
    } else {
      out << "row";
    }
    out << ":";
    for (const auto& [key, v] : row.as_object()) {
      if (!v.is_number()) continue;
      if (key == "n_messages") continue;
      const Direction d = direction_of(key);
      if (d == Direction::kNeutral &&
          key.find("events") == std::string::npos &&
          key.find("parity") == std::string::npos &&
          key.find("batched") == std::string::npos) {
        continue;  // keep rows readable: timings + speedups + volumes
      }
      out << " " << key << "=" << fmt(v.as_number());
    }
    out << "\n";
  }
  return out.str();
}

std::string summarize_flight_recorder(const JsonValue& doc) {
  std::ostringstream out;
  out << "flight recorder dump: cause=\""
      << doc.string_at("cause").value_or("") << "\"\n";
  out << "  capacity=" << fmt(doc.number_at("capacity").value_or(0))
      << " total_records=" << fmt(doc.number_at("total_records").value_or(0))
      << " dropped=" << fmt(doc.number_at("dropped").value_or(0)) << "\n";
  const JsonValue* records = doc.find("records");
  if (records != nullptr && records->is_array()) {
    std::size_t events = 0, holds = 0, notes = 0;
    std::string last_note;
    for (const JsonValue& r : records->as_array()) {
      const std::string type = r.string_at("type").value_or("");
      if (type == "event") ++events;
      else if (type == "hold") ++holds;
      else if (type == "note") {
        ++notes;
        last_note = r.string_at("text").value_or("");
      }
    }
    out << "  retained: " << events << " events, " << holds << " holds, "
        << notes << " notes\n";
    if (!last_note.empty()) out << "  last note: \"" << last_note << "\"\n";
  }
  return out.str();
}

std::string summarize_lint(const JsonValue& doc) {
  std::ostringstream out;
  out << "lint report: clean="
      << (doc.bool_at("clean").value_or(false) ? "yes" : "no");
  if (const JsonValue* totals = doc.find("totals");
      totals != nullptr && totals->is_object()) {
    out << " inputs=" << fmt(totals->number_at("inputs").value_or(0))
        << "\n";
    out << "  totals: error=" << fmt(totals->number_at("error").value_or(0))
        << " warning=" << fmt(totals->number_at("warning").value_or(0))
        << " hint=" << fmt(totals->number_at("hint").value_or(0))
        << " note=" << fmt(totals->number_at("note").value_or(0)) << "\n";
    if (const JsonValue* by_rule = totals->find("by_rule");
        by_rule != nullptr && by_rule->is_object() &&
        !by_rule->as_object().empty()) {
      out << "  by rule:";
      for (const auto& [rule, n] : by_rule->as_object()) {
        if (n.is_number()) out << " " << rule << "=" << fmt(n.as_number());
      }
      out << "\n";
    }
  } else {
    out << "\n";
  }
  if (const JsonValue* inputs = doc.find("inputs");
      inputs != nullptr && inputs->is_array()) {
    for (const JsonValue& input : inputs->as_array()) {
      if (!input.is_object()) continue;
      out << "  " << input.string_at("name").value_or("?") << ": ";
      if (!input.bool_at("parsed").value_or(true)) {
        out << "parse error\n";
        continue;
      }
      out << "class=" << input.string_at("class").value_or("?");
      if (const JsonValue* counts = input.find("counts");
          counts != nullptr && counts->is_object()) {
        for (const char* severity : {"error", "warning", "hint", "note"}) {
          const double n = counts->number_at(severity).value_or(0);
          if (n > 0) out << " " << severity << "=" << fmt(n);
        }
      }
      out << "\n";
    }
  }
  return out.str();
}

std::string summarize_verify(const JsonValue& doc) {
  std::ostringstream out;
  out << "verify report: verdict="
      << doc.string_at("verdict").value_or("?");
  if (const JsonValue* scope = doc.find("scope");
      scope != nullptr && scope->is_object()) {
    out << " scope=" << fmt(scope->number_at("processes").value_or(0))
        << "p/" << fmt(scope->number_at("messages").value_or(0)) << "m";
  }
  out << " channel=" << doc.string_at("channel_model").value_or("?")
      << " por=" << (doc.bool_at("por").value_or(false) ? "on" : "off")
      << "\n";
  out << "  states=" << fmt(doc.number_at("states_total").value_or(0))
      << " transitions="
      << fmt(doc.number_at("transitions_total").value_or(0))
      << " restored_hosts="
      << fmt(doc.number_at("restored_hosts_total").value_or(0)) << "\n";
  out << "  spec_checks="
      << fmt(doc.number_at("spec_checks_total").value_or(0))
      << " spec_memo_hits="
      << fmt(doc.number_at("spec_memo_hits_total").value_or(0))
      << " interned hosts="
      << fmt(doc.number_at("interned_hosts_total").value_or(0))
      << " channels="
      << fmt(doc.number_at("interned_channels_total").value_or(0))
      << " packets="
      << fmt(doc.number_at("interned_packets_total").value_or(0))
      << " history_nodes="
      << fmt(doc.number_at("interned_history_nodes_total").value_or(0))
      << " reinterned="
      << fmt(doc.number_at("reinterned_total").value_or(0)) << "\n";
  if (const JsonValue* stacks = doc.find("stacks");
      stacks != nullptr && stacks->is_array()) {
    for (const JsonValue& stack : stacks->as_array()) {
      if (!stack.is_object()) continue;
      out << "  " << stack.string_at("stack").value_or("?") << ": "
          << stack.string_at("verdict").value_or("?")
          << " states=" << fmt(stack.number_at("states").value_or(0))
          << " restored_hosts="
          << fmt(stack.number_at("restored_hosts").value_or(0))
          << " spec_checks="
          << fmt(stack.number_at("spec_checks").value_or(0))
          << " reinterned="
          << fmt(stack.number_at("reinterned").value_or(0));
      if (const JsonValue* scenarios = stack.find("scenarios");
          scenarios != nullptr && scenarios->is_array()) {
        out << " scenarios=" << scenarios->as_array().size();
        for (const JsonValue& s : scenarios->as_array()) {
          if (!s.is_object() || s.find("counterexample") == nullptr) {
            continue;
          }
          out << "\n    counterexample in "
              << s.string_at("scenario").value_or("?") << ": "
              << s.string_at("detail").value_or(
                     s.string_at("verdict").value_or("?"));
        }
      }
      out << "\n";
    }
  }
  return out.str();
}

std::string summarize_chrome_trace(const JsonValue& doc) {
  std::ostringstream out;
  const JsonValue* events = doc.find("traceEvents");
  out << "chrome trace: " << events->as_array().size() << " events\n";
  std::map<std::string, std::size_t> by_cat;
  for (const JsonValue& e : events->as_array()) {
    if (const auto cat = e.string_at("cat")) ++by_cat[*cat];
  }
  for (const auto& [cat, n] : by_cat) {
    out << "  " << cat << ": " << n << "\n";
  }
  return out.str();
}

}  // namespace

std::string stats_summary(const JsonValue& doc) {
  if (!doc.is_object()) {
    return "json document (not an object)\n";
  }
  const std::string schema = doc.string_at("schema").value_or("");
  if (schema.rfind("msgorder.run_report/", 0) == 0) {
    return summarize_run_report(doc);
  }
  if (schema.rfind("msgorder.bench.", 0) == 0) {
    return summarize_bench(doc, schema);
  }
  if (schema.rfind("msgorder.flight_recorder/", 0) == 0) {
    return summarize_flight_recorder(doc);
  }
  if (schema.rfind("msgorder.lint/", 0) == 0) {
    return summarize_lint(doc);
  }
  if (schema.rfind("msgorder.verify/", 0) == 0) {
    return summarize_verify(doc);
  }
  const JsonValue* events = doc.find("traceEvents");
  if (events != nullptr && events->is_array()) {
    return summarize_chrome_trace(doc);
  }
  std::ostringstream out;
  out << "json document: object with " << doc.as_object().size()
      << " members";
  if (!schema.empty()) out << " (schema=" << schema << ")";
  out << "\n";
  return out.str();
}

void flatten_numeric(const JsonValue& doc, const std::string& prefix,
                     std::map<std::string, double>& out) {
  switch (doc.type()) {
    case JsonValue::Type::kNumber:
      out[prefix] = doc.as_number();
      break;
    case JsonValue::Type::kObject:
      for (const auto& [key, v] : doc.as_object()) {
        flatten_numeric(v, prefix.empty() ? key : prefix + "." + key, out);
      }
      break;
    case JsonValue::Type::kArray: {
      const auto& arr = doc.as_array();
      for (std::size_t i = 0; i < arr.size(); ++i) {
        std::string key;
        if (arr[i].is_object()) {
          if (const auto n = arr[i].number_at("n_messages")) {
            key = prefix + "[n=" + fmt(*n) + "]";
          } else if (const auto s = arr[i].number_at("shards")) {
            key = prefix + "[shards=" + fmt(*s) + "]";
          } else if (const auto p = arr[i].string_at("protocol")) {
            key = prefix + "[" + *p + "]";
          }
        }
        if (key.empty()) key = prefix + "[" + std::to_string(i) + "]";
        flatten_numeric(arr[i], key, out);
      }
      break;
    }
    default:
      break;  // null / bool / string: not numeric leaves
  }
}

StatsDiff stats_diff(const JsonValue& baseline, const JsonValue& current,
                     const StatsDiffOptions& options) {
  std::map<std::string, double> base_leaves;
  std::map<std::string, double> cur_leaves;
  flatten_numeric(baseline, "", base_leaves);
  flatten_numeric(current, "", cur_leaves);

  // Schema-declared metadata wins over the leaf-name heuristic; the
  // current artifact's declarations win over the baseline's (so a
  // schema bump re-gates old baselines on the new rules).
  std::map<std::string, FieldMeta, std::less<>> meta =
      collect_field_meta(current);
  for (const auto& [name, fm] : collect_field_meta(baseline)) {
    meta.emplace(name, fm);
  }

  StatsDiff diff;
  diff.baseline_schema = baseline.string_at("schema").value_or("");
  diff.current_schema = current.string_at("schema").value_or("");
  std::ostringstream out;
  if (diff.schema_mismatch()) {
    out << "schema mismatch: baseline=\"" << diff.baseline_schema
        << "\" current=\"" << diff.current_schema << "\"\n";
  }
  out << "diff threshold: " << fmt(options.threshold * 100.0) << "%\n";
  for (const auto& [path, base] : base_leaves) {
    if (path.rfind("field_meta.", 0) == 0) continue;  // metadata, not data
    const auto it = cur_leaves.find(path);
    if (it == cur_leaves.end()) continue;
    const double cur = it->second;
    const std::string_view leaf = leaf_name(path);
    if (!options.fields.empty() &&
        std::find(options.fields.begin(), options.fields.end(), leaf) ==
            options.fields.end()) {
      continue;
    }
    Direction dir;
    double threshold = options.threshold;
    if (const auto m = meta.find(leaf); m != meta.end()) {
      dir = m->second.direction;
      threshold = std::max(threshold, m->second.noise_floor);
    } else {
      dir = direction_of(leaf);
    }
    if (options.fields.empty() && dir == Direction::kNeutral) continue;
    ++diff.compared;
    if (base == 0.0) {
      out << "  " << path << ": " << fmt(base) << " -> " << fmt(cur)
          << " (zero baseline, skipped)\n";
      continue;
    }
    const double delta = (cur - base) / std::fabs(base);
    const bool bad = dir == Direction::kHigherBetter
                         ? delta < -threshold
                         : dir == Direction::kLowerBetter ? delta > threshold
                                                          : false;
    out << (bad ? "  REGRESSION " : "  ") << path << ": " << fmt(base)
        << " -> " << fmt(cur) << " (" << fmt_pct(delta) << ")\n";
    if (bad) {
      diff.regressions.push_back(path + " " + fmt(base) + " -> " + fmt(cur) +
                                 " (" + fmt_pct(delta) + ")");
    }
  }
  out << "compared " << diff.compared << " leaves, "
      << diff.regressions.size() << " regression"
      << (diff.regressions.size() == 1 ? "" : "s") << "\n";
  diff.text = out.str();
  return diff;
}

}  // namespace msgorder
