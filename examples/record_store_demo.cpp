// Record-store demo: the storage substrate below the byte-level simulation.
// Materializes actual PhotoObj-style records, runs a real cone search
// against the partitioned store, applies an update batch and re-runs —
// demonstrating that the result sizes the cost model charges correspond to
// an executable query path.
//
//   ./build/examples/record_store_demo [records=200000 ...]
#include <iostream>
#include <memory>

#include "htm/partition_map.h"
#include "storage/catalog.h"
#include "storage/density_model.h"
#include "storage/record_store.h"
#include "util/config.h"
#include "util/format.h"

int main(int argc, char** argv) try {
  using namespace delta;
  const auto cfg = util::Config::from_args(argc, argv);
  const int level = 4;

  auto density = std::make_shared<storage::DensityModel>(level, 11);
  const auto records = cfg.get_int("records", 200'000);
  const std::int64_t batch = cfg.get_int("batch", 5000);
  cfg.reject_unread_keys();
  density->scale_to_total_rows(static_cast<double>(records));
  const auto map = std::make_shared<htm::PartitionMap>(
      htm::PartitionMap::build(level, density->weights(), 30));
  storage::SkyCatalog catalog{map, *density};
  storage::RecordStore store{*map, *density, records, /*seed=*/3};
  std::cout << "materialized " << store.record_count() << " records across "
            << map->object_count() << " partitions ("
            << util::human_bytes(catalog.total_bytes())
            << " modeled)\n\n";

  // A cone search where the survey is dense.
  const htm::Vec3 center = htm::from_ra_dec(185.0, 32.0);
  const htm::Region cone = htm::Cone{center, 0.12};
  const auto objects = map->objects_for_region(cone);
  std::cout << "cone search (ra=185, dec=32, r~6.9deg) touches "
            << objects.size() << " partitions: B(q) = {";
  for (std::size_t i = 0; i < objects.size(); ++i) {
    std::cout << (i ? "," : "") << objects[i].value();
  }
  std::cout << "}\n";

  const auto hits = store.query(cone, objects);
  const double estimated = catalog.estimate_rows(cone);
  std::cout << "  actual rows: " << hits.size()
            << ", density-model estimate: "
            << static_cast<std::int64_t>(estimated) << " ("
            << util::fixed(estimated / static_cast<double>(hits.size()), 2)
            << "x)\n";

  // Apply an update batch (a telescope visit) to the densest partition.
  ObjectId target = objects.front();
  for (const ObjectId o : objects) {
    if (store.records_of(o).size() > store.records_of(target).size()) {
      target = o;
    }
  }
  util::Rng rng{99};
  store.insert(target, batch, rng, /*run=*/1);
  catalog.apply_insert(target, static_cast<double>(batch));
  std::cout << "\napplied an update batch of " << batch
            << " new observations to partition " << target.value()
            << " (version now " << catalog.object_version(target) << ")\n";

  const auto hits2 = store.query(cone, objects);
  const double estimated2 = catalog.estimate_rows(cone);
  std::cout << "  rerun: actual rows " << hits2.size()
            << ", estimate " << static_cast<std::int64_t>(estimated2)
            << " — the estimate tracks repository growth, which is what "
               "keeps ν(q) current as the repository grows\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return delta::util::report_bad_argument(e);
}
