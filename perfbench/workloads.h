/**
 * @file
 * The benchmark's three fixed-traffic workloads.
 *
 * Every input is a pure function of the seed and the constants in
 * workloads.cc: the offered rates, SLOs and trace sizes never depend on
 * how fast the system under test happens to be, so a faster engine
 * serves the same traffic instead of a heavier one. The library only
 * ever sees the generated requests.
 */

#ifndef FASTTTS_PERFBENCH_WORKLOADS_H
#define FASTTTS_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "api/status.h"
#include "core/online_server.h"
#include "core/serving.h"

namespace perfbench
{

struct Workload
{
    std::string name;
    uint64_t seed = 0;
    bool online = false;                 //!< Open loop via OnlineServer.
    fasttts::OnlineServerOptions server; //!< Online workloads only.
    double baseSlo = 0;                  //!< Base latency budget (sim s).
    /** The rate ladder in requests per simulated second, one entry per
     *  rung; a closed loop has a single rung of rate 0. */
    std::vector<double> rates;
    int episodesPerRung = 1;
    size_t headline = 0; //!< Rung whose latency, SLO and goodput
                         //!< figures are the end-to-end metrics.
};

/** One independent trace, served on its own freshly built stack. */
struct Episode
{
    fasttts::ServingOptions serving;
    /** Online: the open-loop trace. Closed loop: the client's requests
     *  in submission order (arrival is ignored; each request is sent
     *  when the previous one completes). */
    std::vector<fasttts::OnlineRequest> requests;
};

/** Workload names in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Resolve the named workload for `seed`. */
fasttts::StatusOr<Workload> makeWorkload(const std::string &name,
                                         uint64_t seed);

/**
 * Generate one episode of a rung. Episodes are made on demand because
 * a whole ladder of long-context prompts would dominate the process's
 * memory; the same (workload, rung, episode) always yields the same
 * requests.
 */
Episode makeEpisode(const Workload &workload, size_t rung, int episode);

} // namespace perfbench

#endif // FASTTTS_PERFBENCH_WORKLOADS_H
