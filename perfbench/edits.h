/**
 * @file
 * Seeded, function-preserving single-operator edits for the edit-loop
 * benchmark, the wire-visibility self-check every edit must pass, the
 * catalogue of metric names and units the benchmark prints, and the
 * order statistics it reports them with.
 *
 * An edit adds one dead local scalar to the operator and assigns it a
 * seeded constant at the top of the body. The operator computes the
 * same outputs, so the Rosetta golden words still hold, but its
 * contentHash() changes, so the compiler cache and the daemon's store
 * cannot serve the old artifact.
 */

#ifndef PLD_PERFBENCH_EDITS_H
#define PLD_PERFBENCH_EDITS_H

#include <cstdint>
#include <string>
#include <vector>

#include "ir/graph.h"

namespace pld {
namespace perfbench {

/** Name prefix of the dead local every edit adds. */
constexpr const char *kDeadVarPrefix = "pb_dead";

/**
 * Return @p orig with one dead s32 local (a fresh name starting with
 * kDeadVarPrefix) assigned @p constant as the first statement.
 */
ir::OperatorFn applyEdit(const ir::OperatorFn &orig, int64_t constant);

/** Copy of @p g with operator @p op_idx replaced by @p fn. */
ir::Graph withOperator(const ir::Graph &g, size_t op_idx,
                       const ir::OperatorFn &fn);

/**
 * True when the edit survives the wire: after an encodeGraphText ->
 * decodeGraphText round trip of @p edited, operator @p op_idx still
 * hashes differently from @p orig_hash (and equals the edited hash).
 * An edit that fails this would reach the daemon as the unedited
 * operator and be served from cache, so the loop would measure
 * nothing.
 */
bool wireVisible(const ir::Graph &edited, size_t op_idx,
                 uint64_t orig_hash);

/** One metric the benchmark prints in its result line. */
struct MetricDef
{
    const char *name;
    const char *unit;
    const char *better; ///< "lower" or "higher"
    /** End-to-end (printed with --trace 0) vs per-layer (--trace 1). */
    bool endToEnd;
};

/** Every metric, in print order; BENCHMARK.json lists the same. */
const std::vector<MetricDef> &metricCatalogue();

/** Nearest-rank percentile of @p v (0 < p <= 100); 0 when empty. */
double percentile(std::vector<double> v, double p);

/** Median (mean of the two middle values for even sizes). */
double median(std::vector<double> v);

/** Geometric mean of positive values; 0 when empty. */
double geomean(std::vector<double> v);

/**
 * Highest percentile in {50, 75, 90, 95, 99} that leaves at least
 * ten samples above it for @p n samples; 0 when even p50 does not.
 */
int supportedPercentile(size_t n);

} // namespace perfbench
} // namespace pld

#endif // PLD_PERFBENCH_EDITS_H
