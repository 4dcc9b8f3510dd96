#ifndef CDCL_DATA_BENCHMARKS_H_
#define CDCL_DATA_BENCHMARKS_H_

#include <string>
#include <vector>

#include "data/domain.h"
#include "util/status.h"

namespace cdcl {
namespace data {

/// Static description of one synthetic benchmark family, the stand-in for a
/// paper dataset: the real image sets are not bundled, so each family renders
/// shared class structure under per-domain styles (data/domain.h).
struct BenchmarkSpec {
  std::string family;                 // "digits", "office31", ...
  std::vector<std::string> domains;   // e.g. {"A", "D", "W"}
  int64_t image_hw = 16;
  int64_t channels = 3;
  uint64_t family_seed = 0;
  // The paper's task layout for this dataset.
  int64_t paper_num_classes = 0;
  int64_t paper_num_tasks = 0;
};

/// All benchmark families reproduced in this repo.
///   digits     — MNIST<->USPS     (paper: 10 classes, 5 tasks x 2)
///   office31   — Office-31 A/D/W  (paper: 30 classes, 5 tasks x 6)
///   officehome — Ar/Cl/Pr/Re      (paper: 65 classes, 13 tasks x 5)
///   visda      — syn/real         (paper: 12 classes, 4 tasks x 3)
///   domainnet  — clp/inf/pnt/qdr/rel/skt (paper: 345 classes, 15 tasks x 23)
std::vector<std::string> BenchmarkFamilies();

/// Spec lookup; NotFound for unknown families.
Result<BenchmarkSpec> GetBenchmark(const std::string& family);

/// Rendering style of a domain within a family. The styles are calibrated so
/// relative domain gaps mirror the paper's difficulty ordering (e.g. D<->W
/// close, MNIST<->USPS close, quickdraw far from everything).
Result<DomainStyle> GetDomainStyle(const std::string& family,
                                   const std::string& domain);

}  // namespace data
}  // namespace cdcl

#endif  // CDCL_DATA_BENCHMARKS_H_
