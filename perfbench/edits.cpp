#include "edits.h"

#include <algorithm>
#include <cmath>

#include "ir/expr.h"
#include "svc/wire.h"

namespace pld {
namespace perfbench {

namespace {

bool
hasVar(const ir::OperatorFn &fn, const std::string &name)
{
    for (const auto &v : fn.vars)
        if (v.name == name)
            return true;
    return false;
}

} // namespace

ir::OperatorFn
applyEdit(const ir::OperatorFn &orig, int64_t constant)
{
    ir::OperatorFn fn = orig;
    std::string name = kDeadVarPrefix;
    for (int k = 1; hasVar(fn, name); ++k)
        name = std::string(kDeadVarPrefix) + std::to_string(k);
    ir::VarDecl v;
    v.name = name;
    v.type = ir::Type::s(32);
    fn.vars.push_back(v);

    auto st = ir::makeStmt(ir::StmtKind::Assign);
    st->imm = static_cast<int64_t>(fn.vars.size() - 1);
    st->args.push_back(ir::makeConst(ir::Type::s(32), constant));
    fn.body.insert(fn.body.begin(), st);
    return fn;
}

ir::Graph
withOperator(const ir::Graph &g, size_t op_idx, const ir::OperatorFn &fn)
{
    ir::Graph out = g;
    out.ops[op_idx].fn = fn;
    return out;
}

bool
wireVisible(const ir::Graph &edited, size_t op_idx, uint64_t orig_hash)
{
    ir::Graph back = svc::decodeGraphText(svc::encodeGraphText(edited));
    if (back.ops.size() != edited.ops.size())
        return false;
    uint64_t h = back.ops[op_idx].fn.contentHash();
    return h != orig_hash && h == edited.ops[op_idx].fn.contentHash();
}

const std::vector<MetricDef> &
metricCatalogue()
{
    static const std::vector<MetricDef> defs = {
        // End to end.
        {"setup_s", "s", "lower", true},
        {"full_build_s", "s", "lower", true},
        {"edit_s_p50", "s", "lower", true},
        {"edits_per_s", "1/s", "higher", true},
        {"fmax_mhz_geomean", "MHz", "higher", true},
        // Simulated (not measured) microseconds: deterministic per build.
        {"run_us_per_input_geomean", "sim_us", "lower", true},
        {"peak_rss_mb", "MB", "lower", true},
        // svc: wire, coalesce, store, admission.
        {"svc.request_s_p50", "s", "lower", false},
        {"svc.request_s_p90", "s", "lower", false},
        {"svc.server_s_p50", "s", "lower", false},
        {"svc.wire_s_p50", "s", "lower", false},
        {"svc.coalesced_ratio", "ratio", "higher", false},
        {"svc.store_hit_ratio", "ratio", "higher", false},
        // Realised team-burst request mix (shares of requests sent).
        {"svc.dup_share", "ratio", "higher", false},
        {"svc.repeat_share", "ratio", "higher", false},
        {"svc.new_share", "ratio", "lower", false},
        {"svc.rejected", "count", "lower", false},
        {"svc.store_puts", "count", "lower", false},
        {"svc.store_io_errors", "count", "lower", false},
        {"svc.restart_s", "s", "lower", false},
        // pld: the compiler and its artifact cache.
        {"pld.swap_artifact_s", "s", "lower", false},
        {"pld.build_s", "s", "lower", false},
        {"pld.recompiled_per_edit", "count", "lower", false},
        {"pld.cache_hit_ratio", "ratio", "higher", false},
        {"pld.ladder_escalations", "count", "lower", false},
        // hls, syn.
        {"hls.s", "s", "lower", false},
        {"hls.cells", "count", "lower", false},
        {"syn.s", "s", "lower", false},
        // pnr.
        {"pnr.place_s", "s", "lower", false},
        {"pnr.route_s", "s", "lower", false},
        {"pnr.bitgen_s", "s", "lower", false},
        {"pnr.place_moves", "count", "lower", false},
        {"pnr.ns_per_move", "ns", "lower", false},
        {"pnr.move_accept_ratio", "ratio", "higher", false},
        {"pnr.route_iterations", "count", "lower", false},
        {"pnr.page_fmax_mhz_geomean", "MHz", "higher", false},
        // rvgen.
        {"rvgen.s", "s", "lower", false},
        {"rvgen.code_bytes", "bytes", "lower", false},
        // sys: simulator, rv32 ISS, NoC.
        {"sys.run_s", "s", "lower", false},
        {"sys.cycles", "count", "lower", false},
        {"sys.mcycles_per_s", "Mcycles/s", "higher", false},
        {"sys.swap_s", "s", "lower", false},
        {"sys.swap_cycles", "count", "lower", false},
        {"sys.swap_packets", "count", "lower", false},
        {"sys.swap_retransmits", "count", "lower", false},
        {"noc.flits", "count", "lower", false},
        // Self-time shares of the summed edit wall time.
        {"share.client", "ratio", "lower", false},
        {"share.svc", "ratio", "lower", false},
        {"share.pld", "ratio", "lower", false},
        {"share.hls", "ratio", "lower", false},
        {"share.syn", "ratio", "lower", false},
        {"share.pnr_place", "ratio", "lower", false},
        {"share.pnr_route", "ratio", "lower", false},
        {"share.pnr_bitgen", "ratio", "lower", false},
        {"share.rvgen", "ratio", "lower", false},
        {"share.sys_swap", "ratio", "lower", false},
        {"share.sys_run", "ratio", "lower", false},
        // Tracing overhead.
        {"trace.edit_s_p50", "s", "lower", false},
        {"trace.compile_overhead_ratio", "ratio", "lower", false},
    };
    return defs;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
geomean(std::vector<double> v)
{
    if (v.empty())
        return 0;
    // Sorted, so the sum (and the result) does not depend on order.
    std::sort(v.begin(), v.end());
    double s = 0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

int
supportedPercentile(size_t n)
{
    int best = 0;
    for (int p : {50, 75, 90, 95, 99})
        if (static_cast<double>(n) * (100 - p) / 100.0 >= 10.0)
            best = p;
    return best;
}

} // namespace perfbench
} // namespace pld
