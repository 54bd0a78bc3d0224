#include "workload/trace_io.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "util/check.h"

namespace delta::workload {

namespace {

constexpr const char* kMagic = "# delta-trace v1";

void write_region(std::ostream& os, const htm::Region& region) {
  std::visit(
      [&](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, htm::Cone>) {
          os << "cone " << r.center.x << ' ' << r.center.y << ' '
             << r.center.z << ' ' << r.radius_rad;
        } else if constexpr (std::is_same_v<T, htm::RaDecRect>) {
          os << "rect " << r.ra_lo_deg << ' ' << r.ra_hi_deg << ' '
             << r.dec_lo_deg << ' ' << r.dec_hi_deg;
        } else {
          os << "band " << r.pole.x << ' ' << r.pole.y << ' ' << r.pole.z
             << ' ' << r.half_width_rad;
        }
      },
      region);
}

htm::Region read_region(std::istream& is) {
  std::string kind;
  is >> kind;
  if (kind == "cone") {
    htm::Cone c;
    is >> c.center.x >> c.center.y >> c.center.z >> c.radius_rad;
    return c;
  }
  if (kind == "rect") {
    htm::RaDecRect r;
    is >> r.ra_lo_deg >> r.ra_hi_deg >> r.dec_lo_deg >> r.dec_hi_deg;
    return r;
  }
  DELTA_CHECK_MSG(kind == "band", "unknown region kind '" << kind << "'");
  htm::GreatCircleBand b;
  is >> b.pole.x >> b.pole.y >> b.pole.z >> b.half_width_rad;
  return b;
}

QueryKind parse_query_kind(const std::string& s) {
  if (s == "cone") return QueryKind::kConeSearch;
  if (s == "rect") return QueryKind::kRangeRect;
  if (s == "self_join") return QueryKind::kSelfJoin;
  if (s == "aggregation") return QueryKind::kAggregation;
  DELTA_CHECK_MSG(s == "scan_chunk", "unknown query kind '" << s << "'");
  return QueryKind::kScanChunk;
}

}  // namespace

void write_trace(std::ostream& os, const Trace& trace) {
  os << kMagic << '\n';
  os << std::setprecision(17);
  os << "info " << trace.info.seed << ' ' << trace.info.base_level << ' '
     << trace.info.row_bytes.count() << ' ' << trace.info.warmup_end_event
     << ' ' << trace.info.partition_count << '\n';
  for (std::size_t i = 0; i < trace.initial_object_bytes.size(); ++i) {
    os << "object " << i << ' ' << trace.initial_object_bytes[i].count()
       << '\n';
  }
  for (const Query& q : trace.queries) {
    os << "query " << q.id.value() << ' ' << q.time << ' '
       << to_string(q.kind) << ' ' << q.cost.count() << ' '
       << q.staleness_tolerance << ' ';
    write_region(os, q.region);
    os << " cover";
    for (const std::int32_t idx : q.base_cover) os << ' ' << idx;
    os << " objects";
    for (const ObjectId o : q.objects) os << ' ' << o.value();
    os << '\n';
  }
  for (const Update& u : trace.updates) {
    os << "update " << u.id.value() << ' ' << u.time << ' ' << u.base_index
       << ' ' << u.object.value() << ' ' << u.rows << ' ' << u.cost.count()
       << ' ' << u.position.x << ' ' << u.position.y << ' ' << u.position.z
       << '\n';
  }
}

Trace read_trace(std::istream& is) {
  std::string line;
  DELTA_CHECK_MSG(std::getline(is, line) && line == kMagic,
                  "not a delta-trace v1 file");
  Trace trace;
  bool have_info = false;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls{line};
    std::string tag;
    ls >> tag;
    if (tag == "info") {
      std::size_t partitions = 0;
      ls >> trace.info.seed >> trace.info.base_level;
      std::int64_t row_bytes = 0;
      ls >> row_bytes >> trace.info.warmup_end_event >> partitions;
      trace.info.row_bytes = Bytes{row_bytes};
      trace.info.partition_count = partitions;
      trace.initial_object_bytes.assign(partitions, Bytes{});
      have_info = true;
    } else if (tag == "object") {
      DELTA_CHECK(have_info);
      std::size_t idx = 0;
      std::int64_t bytes = 0;
      ls >> idx >> bytes;
      DELTA_CHECK(idx < trace.initial_object_bytes.size());
      trace.initial_object_bytes[idx] = Bytes{bytes};
    } else if (tag == "query") {
      Query q;
      std::int64_t id = 0;
      std::string kind;
      std::int64_t cost = 0;
      ls >> id >> q.time >> kind >> cost >> q.staleness_tolerance;
      q.id = QueryId{id};
      q.kind = parse_query_kind(kind);
      q.cost = Bytes{cost};
      q.region = read_region(ls);
      std::string section;
      ls >> section;
      DELTA_CHECK(section == "cover");
      std::string token;
      while (ls >> token) {
        if (token == "objects") break;
        q.base_cover.push_back(static_cast<std::int32_t>(std::stol(token)));
      }
      DELTA_CHECK(token == "objects");
      std::int64_t obj = 0;
      while (ls >> obj) q.objects.push_back(ObjectId{obj});
      trace.queries.push_back(std::move(q));
    } else if (tag == "update") {
      Update u;
      std::int64_t id = 0;
      std::int64_t object = 0;
      std::int64_t cost = 0;
      ls >> id >> u.time >> u.base_index >> object >> u.rows >> cost >>
          u.position.x >> u.position.y >> u.position.z;
      u.id = UpdateId{id};
      u.object = ObjectId{object};
      u.cost = Bytes{cost};
      trace.updates.push_back(u);
    } else {
      DELTA_CHECK_MSG(false, "unknown trace line tag '" << tag << "'");
    }
  }
  DELTA_CHECK_MSG(have_info, "trace file missing info line");

  trace.check_record_counts();
  // Reconstruct the merged order from the unique, increasing event times.
  trace.order.reserve(trace.queries.size() + trace.updates.size());
  std::size_t qi = 0;
  std::size_t ui = 0;
  while (qi < trace.queries.size() || ui < trace.updates.size()) {
    const bool take_query =
        ui >= trace.updates.size() ||
        (qi < trace.queries.size() &&
         trace.queries[qi].time < trace.updates[ui].time);
    if (take_query) {
      trace.order.push_back(Event::query(static_cast<std::int64_t>(qi++)));
    } else {
      trace.order.push_back(Event::update(static_cast<std::int64_t>(ui++)));
    }
  }
  trace.validate();
  return trace;
}

void save_trace(const std::string& path, const Trace& trace) {
  std::ofstream os{path};
  DELTA_CHECK_MSG(os.good(), "cannot open " << path << " for writing");
  write_trace(os, trace);
  DELTA_CHECK_MSG(os.good(), "failed while writing " << path);
}

Trace load_trace(const std::string& path) {
  std::ifstream is{path};
  DELTA_CHECK_MSG(is.good(), "cannot open " << path);
  return read_trace(is);
}

}  // namespace delta::workload
