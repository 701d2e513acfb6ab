#include "obs/critpath.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "common/check.hpp"
#include "obs/json.hpp"

namespace weipipe::obs {

namespace {

// One maximal stretch of a rank's timeline during which `span` was the
// innermost (deepest) active span — nesting flattened, so leaves tile each
// rank's busy time without overlap.
struct Leaf {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  const Span* span = nullptr;
};

// Flattens one rank's (possibly nested) spans into non-overlapping leaves,
// sorted by start. Deepest span wins: a child's interval is carved out of
// its parent, and the parent resumes when the child ends.
std::vector<Leaf> flatten_rank(std::vector<const Span*> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span* a, const Span* b) {
    if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
    return a->end_ns > b->end_ns;  // parent before same-start child
  });
  std::vector<Leaf> leaves;
  std::vector<const Span*> stack;
  std::int64_t cursor = spans.empty() ? 0 : spans.front()->start_ns;
  auto advance = [&](std::int64_t until) {
    while (cursor < until) {
      while (!stack.empty() && stack.back()->end_ns <= cursor) {
        stack.pop_back();
      }
      if (stack.empty()) {
        cursor = until;  // idle: no span active — the walk sees a gap
        break;
      }
      const Span* top = stack.back();
      const std::int64_t e = std::min(top->end_ns, until);
      if (e > cursor) {
        leaves.push_back(Leaf{cursor, e, top});
        cursor = e;
      }
      if (top->end_ns <= cursor) {
        stack.pop_back();
      }
    }
  };
  for (const Span* s : spans) {
    advance(s->start_ns);
    cursor = std::max(cursor, s->start_ns);
    stack.push_back(s);
  }
  if (!spans.empty()) {
    std::int64_t last = 0;
    for (const Span* s : spans) last = std::max(last, s->end_ns);
    advance(last);
  }
  return leaves;
}

// Index of the last leaf with start_ns < t, or -1.
int last_leaf_before(const std::vector<Leaf>& leaves, std::int64_t t) {
  int lo = 0;
  int hi = static_cast<int>(leaves.size()) - 1;
  int best = -1;
  while (lo <= hi) {
    const int mid = lo + (hi - lo) / 2;
    if (leaves[static_cast<std::size_t>(mid)].start_ns < t) {
      best = mid;
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return best;
}

PathCategory categorize(SpanKind kind) {
  switch (kind) {
    case SpanKind::kForward:
    case SpanKind::kBackward:
    case SpanKind::kBackwardActs:
    case SpanKind::kBackwardWeights:
    case SpanKind::kOptimizer:
    case SpanKind::kLoss:
    case SpanKind::kKernel:
      return PathCategory::kCompute;
    case SpanKind::kSendTransfer:
    case SpanKind::kRecvTransfer:
    case SpanKind::kCollective:
      return PathCategory::kExposedWire;
    case SpanKind::kRecvWait:
      return PathCategory::kBlockedRecv;  // refined by the flow lookup
    case SpanKind::kFault:
      return PathCategory::kStallFault;
    case SpanKind::kStep:
      return PathCategory::kGap;
  }
  return PathCategory::kGap;
}

std::string default_wire_kind(std::int64_t tag) {
  return "tag" + std::to_string(tag);
}

std::string format_ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f ms", seconds * 1e3);
  return buf;
}

std::string format_pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%5.1f%%", fraction * 1e2);
  return buf;
}

}  // namespace

const char* to_string(PathCategory category) {
  switch (category) {
    case PathCategory::kCompute:
      return "compute";
    case PathCategory::kExposedWire:
      return "exposed_wire";
    case PathCategory::kBlockedRecv:
      return "blocked_recv";
    case PathCategory::kStallFault:
      return "stall_fault";
    case PathCategory::kGap:
      return "gap";
  }
  return "?";
}

StepAnatomy analyze_step(const std::vector<Span>& spans,
                         const AnatomyOptions& options) {
  StepAnatomy out;
  const std::function<std::string(std::int64_t)> wire_label =
      options.wire_kind_label ? options.wire_kind_label : default_wire_kind;

  // Partition: ranked spans form the DAG; kStep markers name the step.
  std::map<int, std::vector<const Span*>> by_rank;
  std::unordered_map<std::int64_t, const Span*> send_by_flow;
  std::vector<const Span*> faults;
  bool any_ranked = false;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kStep) {
      if (s.microbatch >= 0) out.step_index = s.microbatch;
      continue;
    }
    if (s.rank < 0) continue;
    by_rank[s.rank].push_back(&s);
    if (s.kind == SpanKind::kSendTransfer && s.flow_id >= 0) {
      send_by_flow.emplace(s.flow_id, &s);
    }
    if (s.kind == SpanKind::kFault) {
      faults.push_back(&s);
    }
    if (!any_ranked) {
      out.window_start_ns = s.start_ns;
      out.window_end_ns = s.end_ns;
    } else {
      out.window_start_ns = std::min(out.window_start_ns, s.start_ns);
      out.window_end_ns = std::max(out.window_end_ns, s.end_ns);
    }
    any_ranked = true;
  }
  if (!any_ranked) return out;
  out.ranks = static_cast<int>(by_rank.size());

  std::map<int, std::vector<Leaf>> leaves;
  for (auto& [rank, rs] : by_rank) {
    leaves[rank] = flatten_rank(std::move(rs));
  }

  // The walk starts on the rank whose timeline ends last (ties: lowest
  // rank — std::map order makes `>` keep the first maximal rank).
  int rank = -1;
  std::int64_t last_end = out.window_start_ns - 1;
  for (const auto& [r, ls] : leaves) {
    for (const Leaf& l : ls) {
      if (l.end_ns > last_end) {
        last_end = l.end_ns;
        rank = r;
      }
    }
  }
  WEIPIPE_CHECK(rank >= 0);

  // Backward walk: t strictly decreases every turn, and each emitted
  // segment abuts the previous one, so the path tiles the window exactly.
  std::vector<PathSegment> backward;
  std::int64_t t = out.window_end_ns;
  auto emit = [&](std::int64_t start, std::int64_t end, int seg_rank,
                  PathCategory cat, const Span* span) {
    if (end <= start) return;
    PathSegment seg;
    seg.start_ns = start;
    seg.end_ns = end;
    seg.rank = seg_rank;
    seg.category = cat;
    if (span != nullptr) {
      seg.kind = span->kind;
      seg.peer = span->peer;
      seg.tag = span->tag;
      seg.flow_id = span->flow_id;
      if (cat == PathCategory::kExposedWire && span->tag >= 0) {
        seg.wire_kind = wire_label(span->tag);
      }
    }
    backward.push_back(std::move(seg));
  };
  while (t > out.window_start_ns) {
    const std::vector<Leaf>& lane = leaves[rank];
    const int idx = last_leaf_before(lane, t);
    if (idx < 0) {
      emit(out.window_start_ns, t, rank, PathCategory::kGap, nullptr);
      t = out.window_start_ns;
      break;
    }
    const Leaf& leaf = lane[static_cast<std::size_t>(idx)];
    if (leaf.end_ns < t) {
      // Idle tail: the rank had nothing running in (leaf.end, t].
      emit(leaf.end_ns, t, rank, PathCategory::kGap, nullptr);
      t = leaf.end_ns;
      continue;
    }
    const Span* span = leaf.span;
    const PathCategory cat = categorize(span->kind);
    if (span->kind == SpanKind::kRecvWait) {
      const Span* send = nullptr;
      if (span->flow_id >= 0) {
        const auto it = send_by_flow.find(span->flow_id);
        if (it != send_by_flow.end()) send = it->second;
      }
      if (send != nullptr) {
        if (send->end_ns > leaf.start_ns && send->end_ns < t) {
          // The transfer landed mid-wait: the tail after landing is the
          // exposed hop (receiver wakeup); before that, the path continues
          // on the producer rank, whose transfer leaf is walked next.
          emit(send->end_ns, t, rank, PathCategory::kExposedWire, span);
          t = send->end_ns;
          rank = send->rank;
          continue;
        }
        if (send->end_ns >= t && send->start_ns < t) {
          // The receiver dequeued before the producer finished closing its
          // transfer span (spin receive): only the overlap with the
          // transfer is exposed wire; the wait before the transfer began
          // was pacing on the producer's compute, so jump there.
          const std::int64_t hop = std::max(leaf.start_ns, send->start_ns);
          emit(hop, t, rank, PathCategory::kExposedWire, span);
          t = hop;
          rank = send->rank;
          continue;
        }
        // The transfer completed before the wait began (fabric/wakeup
        // latency), or the matched send lies entirely outside the wait:
        // the whole stretch is exposed wire here.
        emit(leaf.start_ns, t, rank, PathCategory::kExposedWire, span);
        t = leaf.start_ns;
        continue;
      }
      // No producing send known (aborted/timed-out waits carry no flow id;
      // a dropped span loses the flow). If an injected fault froze a rank
      // while this wait was pending (stall plans abort every wait with no
      // send ever recorded), the wait IS the stall: emit it as kStallFault
      // carrying the wait's (peer, tag) so the report names the frozen
      // edge. Faults on the wait's peer win over faults elsewhere; any
      // concurrent fault still explains the dead wait.
      const Span* fault = nullptr;
      for (const Span* f : faults) {
        if (f->start_ns >= t || f->end_ns <= leaf.start_ns) continue;
        if (f->rank == span->peer) {
          fault = f;
          break;
        }
        if (fault == nullptr) fault = f;
      }
      if (fault != nullptr) {
        emit(leaf.start_ns, t, rank, PathCategory::kStallFault, span);
        t = leaf.start_ns;
        continue;
      }
      emit(leaf.start_ns, t, rank, PathCategory::kBlockedRecv, span);
      t = leaf.start_ns;
      continue;
    }
    emit(leaf.start_ns, t, rank, cat, span);
    t = leaf.start_ns;
  }

  // Chronological order, merging contiguous same-identity pieces.
  std::reverse(backward.begin(), backward.end());
  for (PathSegment& seg : backward) {
    if (!out.segments.empty()) {
      PathSegment& prev = out.segments.back();
      if (prev.end_ns == seg.start_ns && prev.rank == seg.rank &&
          prev.category == seg.category && prev.kind == seg.kind &&
          prev.peer == seg.peer && prev.tag == seg.tag &&
          prev.flow_id == seg.flow_id) {
        prev.end_ns = seg.end_ns;
        continue;
      }
    }
    out.segments.push_back(std::move(seg));
  }

  // Aggregations.
  std::map<int, RankAttribution> per_rank;
  std::map<std::string, WireExposure> per_wire;
  for (const PathSegment& seg : out.segments) {
    const double s = seg.seconds();
    out.category_seconds[static_cast<int>(seg.category)] += s;
    RankAttribution& ra = per_rank[seg.rank];
    ra.rank = seg.rank;
    ra.seconds[static_cast<int>(seg.category)] += s;
    if (seg.category == PathCategory::kExposedWire && !seg.wire_kind.empty()) {
      WireExposure& w = per_wire[seg.wire_kind];
      w.kind = seg.wire_kind;
      w.seconds += s;
      ++w.segments;
    }
  }
  out.rank_attribution.reserve(per_rank.size());
  for (auto& [r, ra] : per_rank) out.rank_attribution.push_back(ra);
  out.wire.reserve(per_wire.size());
  for (auto& [k, w] : per_wire) out.wire.push_back(w);
  std::sort(out.wire.begin(), out.wire.end(),
            [](const WireExposure& a, const WireExposure& b) {
              if (a.seconds != b.seconds) return a.seconds > b.seconds;
              return a.kind < b.kind;
            });
  return out;
}

std::vector<StepAnatomy> analyze_steps(const std::vector<Span>& spans,
                                       const AnatomyOptions& options) {
  std::vector<const Span*> steps;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kStep) steps.push_back(&s);
  }
  if (steps.size() <= 1) {
    std::vector<StepAnatomy> out;
    out.push_back(analyze_step(spans, options));
    return out;
  }
  std::sort(steps.begin(), steps.end(), [](const Span* a, const Span* b) {
    return a->start_ns < b->start_ns;
  });
  // Assign every span to the latest step marker starting at or before it;
  // spans before the first marker join the first step.
  std::vector<std::vector<Span>> groups(steps.size());
  for (const Span& s : spans) {
    int lo = 0;
    int hi = static_cast<int>(steps.size()) - 1;
    int g = 0;
    while (lo <= hi) {
      const int mid = lo + (hi - lo) / 2;
      if (steps[static_cast<std::size_t>(mid)]->start_ns <= s.start_ns) {
        g = mid;
        lo = mid + 1;
      } else {
        hi = mid - 1;
      }
    }
    groups[static_cast<std::size_t>(g)].push_back(s);
  }
  std::vector<StepAnatomy> out;
  out.reserve(groups.size());
  for (const std::vector<Span>& g : groups) {
    out.push_back(analyze_step(g, options));
  }
  return out;
}

std::string StepAnatomy::to_json() const {
  std::string j = "{\"schema_version\":";
  j += std::to_string(kAnatomySchemaVersion);
  j += ",\"step_index\":" + std::to_string(step_index);
  j += ",\"window_start_ns\":" + std::to_string(window_start_ns);
  j += ",\"window_end_ns\":" + std::to_string(window_end_ns);
  j += ",\"ranks\":" + std::to_string(ranks);
  j += ",\"step_seconds\":" + json_number(step_seconds());
  j += ",\"path_seconds\":" + json_number(path_seconds());
  j += ",\"exposed_comm_fraction\":" + json_number(exposed_comm_fraction());
  j += ",\"compute_fraction\":" + json_number(compute_fraction());
  j += ",\"categories\":{";
  for (int c = 0; c < kNumPathCategories; ++c) {
    if (c > 0) j += ',';
    append_json_string(j, to_string(static_cast<PathCategory>(c)));
    j += ':' + json_number(category_seconds[c]);
  }
  j += "},\"wire\":[";
  for (std::size_t i = 0; i < wire.size(); ++i) {
    if (i > 0) j += ',';
    j += "{\"kind\":";
    append_json_string(j, wire[i].kind);
    j += ",\"seconds\":" + json_number(wire[i].seconds);
    j += ",\"segments\":" + std::to_string(wire[i].segments) + '}';
  }
  j += "],\"ranks_attribution\":[";
  for (std::size_t i = 0; i < rank_attribution.size(); ++i) {
    if (i > 0) j += ',';
    const RankAttribution& ra = rank_attribution[i];
    j += "{\"rank\":" + std::to_string(ra.rank);
    for (int c = 0; c < kNumPathCategories; ++c) {
      j += ',';
      append_json_string(j, to_string(static_cast<PathCategory>(c)));
      j += ':' + json_number(ra.seconds[c]);
    }
    j += '}';
  }
  j += "],\"segments\":[";
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (i > 0) j += ',';
    const PathSegment& seg = segments[i];
    j += "{\"start_ns\":" + std::to_string(seg.start_ns);
    j += ",\"end_ns\":" + std::to_string(seg.end_ns);
    j += ",\"rank\":" + std::to_string(seg.rank);
    j += ",\"category\":";
    append_json_string(j, to_string(seg.category));
    j += ",\"kind\":";
    append_json_string(j, obs::to_string(seg.kind));
    j += ",\"peer\":" + std::to_string(seg.peer);
    j += ",\"tag\":" + std::to_string(seg.tag);
    j += ",\"flow_id\":" + std::to_string(seg.flow_id);
    j += ",\"wire_kind\":";
    append_json_string(j, seg.wire_kind);
    j += '}';
  }
  j += "]}";
  return j;
}

std::string StepAnatomy::ascii_timeline(int width) const {
  std::string out;
  if (segments.empty() || window_end_ns <= window_start_ns) {
    return "(empty step window)\n";
  }
  width = std::max(width, 20);
  const double ns_per_col =
      static_cast<double>(window_end_ns - window_start_ns) / width;
  char head[96];
  std::snprintf(head, sizeof(head),
                "step %lld  |%s| = 1 column %.3f us, window %s\n",
                static_cast<long long>(step_index), "critical path",
                ns_per_col * 1e-3, format_ms(step_seconds()).c_str());
  out += head;
  static const char kGlyph[kNumPathCategories] = {'C', 'W', 'R', 'S', '-'};
  for (const RankAttribution& ra : rank_attribution) {
    char lane[16];
    std::snprintf(lane, sizeof(lane), "r%-3d ", ra.rank);
    out += lane;
    for (int col = 0; col < width; ++col) {
      const std::int64_t c0 =
          window_start_ns + static_cast<std::int64_t>(col * ns_per_col);
      const std::int64_t c1 =
          window_start_ns + static_cast<std::int64_t>((col + 1) * ns_per_col);
      // Dominant path category inside this column on this rank, if any.
      double best = 0.0;
      int best_cat = -1;
      for (const PathSegment& seg : segments) {
        if (seg.rank != ra.rank) continue;
        const std::int64_t lo = std::max(seg.start_ns, c0);
        const std::int64_t hi = std::min(seg.end_ns, std::max(c1, c0 + 1));
        if (hi <= lo) continue;
        const double overlap = static_cast<double>(hi - lo);
        if (overlap > best) {
          best = overlap;
          best_cat = static_cast<int>(seg.category);
        }
      }
      out += best_cat < 0 ? '.' : kGlyph[best_cat];
    }
    out += '\n';
  }
  out +=
      "     C compute  W exposed wire  R blocked recv  S stall  - gap  "
      ". off-path\n";
  return out;
}

std::string StepAnatomy::summary() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "step %lld: critical path %s across %d ranks, "
                "exposed comm %s\n",
                static_cast<long long>(step_index),
                format_ms(path_seconds()).c_str(), ranks,
                format_pct(exposed_comm_fraction()).c_str());
  out += line;
  const double total = path_seconds();
  for (int c = 0; c < kNumPathCategories; ++c) {
    const double s = category_seconds[c];
    std::snprintf(line, sizeof(line), "  %-13s %12s  %s\n",
                  to_string(static_cast<PathCategory>(c)),
                  format_ms(s).c_str(),
                  format_pct(total > 0.0 ? s / total : 0.0).c_str());
    out += line;
  }
  if (!wire.empty()) {
    out += "  exposed wire by kind:";
    for (const WireExposure& w : wire) {
      std::snprintf(line, sizeof(line), " %s=%s/%lldseg", w.kind.c_str(),
                    format_ms(w.seconds).c_str(),
                    static_cast<long long>(w.segments));
      out += line;
    }
    out += '\n';
  }
  out += "  path residency by rank:";
  for (const RankAttribution& ra : rank_attribution) {
    std::snprintf(line, sizeof(line), " r%d=%s", ra.rank,
                  format_ms(ra.total_seconds()).c_str());
    out += line;
  }
  out += '\n';
  return out;
}

}  // namespace weipipe::obs
