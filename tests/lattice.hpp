// The engine lattice shared by the bit-identity suites: rank count
// P in {2, 4, 8} x execution backend {Sequential, Threaded} x RC exchange
// {sync, async} (EngineConfig::rc_async). Parameterized suites instantiate
// with ::testing::ValuesIn(lattice_cases()) and LatticeName; loop-style tests
// iterate lattice_cases() and SCOPED_TRACE(lattice_name(c)). Suites that
// compare the two exchange modes inside each case use the P x backend slice,
// rank_backend_cases().
//
// Every case also carries the boundary wire format. Since the v1 layout was
// deleted BoundaryWireFormat has the single value V2Soa, so the axis selects
// nothing; it stays in the tuple (and as the "_v2" name part) so each case
// keeps the CTest name, GetParam text included, it has always been listed
// under. For the same reason BackendKind gets no PrintTo: gtest prints it as
// its (stable) enum bytes.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/rc.hpp"
#include "runtime/backend.hpp"

namespace aa {

using RankBackend = std::tuple<std::uint32_t /*ranks*/, BackendKind, BoundaryWireFormat>;
using LatticeCase =
    std::tuple<std::uint32_t /*ranks*/, BackendKind, BoundaryWireFormat, bool /*rc_async*/>;

inline std::vector<RankBackend> rank_backend_cases() {
    std::vector<RankBackend> cases;
    for (const std::uint32_t ranks : {2u, 4u, 8u}) {
        for (const BackendKind backend : {BackendKind::Sequential, BackendKind::Threaded}) {
            cases.emplace_back(ranks, backend, BoundaryWireFormat::V2Soa);
        }
    }
    return cases;
}

inline std::vector<LatticeCase> lattice_cases() {
    std::vector<LatticeCase> cases;
    for (const auto& [ranks, backend, format] : rank_backend_cases()) {
        for (const bool rc_async : {false, true}) {
            cases.emplace_back(ranks, backend, format, rc_async);
        }
    }
    return cases;
}

/// "r4_threaded_v2" / "r4_threaded_v2_async": valid gtest name suffixes,
/// also readable in SCOPED_TRACE output. `threaded` names the Threaded
/// backend (test_migrate's cases have always said "thr").
inline std::string lattice_name(const RankBackend& c, const char* threaded = "threaded") {
    // Appends only: gcc 12 reports a false -Wrestrict for `"literal" +
    // std::string` temporaries.
    std::string name = "r";
    name += std::to_string(std::get<0>(c));
    name += '_';
    name += std::get<1>(c) == BackendKind::Threaded ? threaded : "seq";
    name += "_v2";
    return name;
}
inline std::string lattice_name(const LatticeCase& c, const char* threaded = "threaded") {
    return lattice_name(RankBackend{std::get<0>(c), std::get<1>(c), std::get<2>(c)}, threaded) +
           (std::get<3>(c) ? "_async" : "_sync");
}

/// Name generator for INSTANTIATE_TEST_SUITE_P over either slice.
struct LatticeName {
    const char* threaded = "threaded";

    template <typename Param>
    std::string operator()(const ::testing::TestParamInfo<Param>& info) const {
        return lattice_name(info.param, threaded);
    }
};

}  // namespace aa
