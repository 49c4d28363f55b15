// Event-driven exchange scheduling: schedule_arrivals consistency with the
// collective exchange_duration makespans, per-schedule arrival rules, and
// the arrival-timestamp contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "runtime/alltoall.hpp"
#include "runtime/logp.hpp"

namespace aa {
namespace {

// ---- schedule_arrivals ----------------------------------------------------

// The name is held inline, not as a pointer: gtest prints the parameter's raw
// bytes into each test's listed name, so a pointer (a load address) would
// change the names on every build. Inline, the bytes (and the names) are the
// same everywhere.
struct ArrivalCase {
    CommSchedule schedule;
    char name[12];
};
static_assert(sizeof(ArrivalCase) == 16, "the listed test names print 16 bytes");

class ScheduleArrivals : public ::testing::TestWithParam<ArrivalCase> {};

/// Build the canonical message list for a dense exchange where rank i sends
/// (i * P + j + 1) * 100 bytes to rank j.
std::vector<InFlightMessage> dense_messages(std::uint32_t P) {
    std::vector<InFlightMessage> messages;
    for (const auto& [from, to] : all_to_all_pairs(P)) {
        messages.push_back(
            {from, to, static_cast<std::size_t>(from * P + to + 1) * 100, 0});
    }
    return messages;
}

TEST_P(ScheduleArrivals, MakespanMatchesExchangeDurationAtEqualReady) {
    // When every sender is ready at the same instant, the event-driven
    // arrival schedule must reproduce the collective pricing exactly: the
    // last arrival minus the common start equals exchange_duration of the
    // same byte matrix. (Each pair carries one message, so per-message and
    // per-pair-aggregate chunking agree.)
    const LogPParams params{};
    for (const std::uint32_t P : {2u, 3u, 4u, 8u}) {
        auto messages = dense_messages(P);
        std::vector<std::size_t> matrix(static_cast<std::size_t>(P) * P, 0);
        for (const InFlightMessage& m : messages) {
            matrix[static_cast<std::size_t>(m.from) * P + m.to] = m.bytes;
        }
        const double start = 3.25;
        std::vector<double> ready(P, start);
        schedule_arrivals(messages, P, ready, params, GetParam().schedule);
        double last = start;
        for (const InFlightMessage& m : messages) {
            EXPECT_GE(m.arrive, start);
            last = std::max(last, m.arrive);
        }
        const double expect =
            exchange_duration(matrix, P, params, GetParam().schedule);
        EXPECT_NEAR(last - start, expect, 1e-12)
            << GetParam().name << " P=" << P;
    }
}

TEST_P(ScheduleArrivals, DeterministicAcrossCalls) {
    const LogPParams params{};
    const std::uint32_t P = 4;
    std::vector<double> ready{0.5, 0.25, 1.0, 0.0};
    auto a = dense_messages(P);
    auto b = dense_messages(P);
    schedule_arrivals(a, P, ready, params, GetParam().schedule);
    schedule_arrivals(b, P, ready, params, GetParam().schedule);
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].arrive, b[i].arrive);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedules, ScheduleArrivals,
    ::testing::Values(
        ArrivalCase{CommSchedule::SerializedAllToAll, "serialized"},
        ArrivalCase{CommSchedule::ParallelRounds, "rounds"},
        ArrivalCase{CommSchedule::Flooding, "flooding"},
        ArrivalCase{CommSchedule::Pipelined, "pipelined"}),
    [](const ::testing::TestParamInfo<ArrivalCase>& p) {
        return std::string(p.param.name);
    });

TEST(ScheduleArrivalsPipelined, SendersSerializeReceiversOverlap) {
    // Under Pipelined, one sender's messages are back to back from its own
    // ready time, and distinct senders do not delay each other.
    const LogPParams params{};
    const std::uint32_t P = 4;
    std::vector<double> ready{0.0, 10.0, 0.0, 0.0};
    auto messages = dense_messages(P);
    schedule_arrivals(messages, P, ready, params, CommSchedule::Pipelined);
    std::vector<double> sender_clock(ready);
    for (const InFlightMessage& m : messages) {
        const double expect = sender_clock[m.from] + params.message_time(m.bytes);
        ASSERT_DOUBLE_EQ(m.arrive, expect);
        sender_clock[m.from] = m.arrive;
    }
    // Sender 1's lateness must not leak into sender 0's arrivals.
    for (const InFlightMessage& m : messages) {
        if (m.from == 0) {
            EXPECT_LT(m.arrive, 10.0);
        }
    }
}

TEST(ScheduleArrivalsSerialized, LateSenderStallsOnlyLaterWireSlots) {
    // The serialized wire processes canonical order, but a message departs at
    // max(wire free, sender ready): early senders' traffic is not held back
    // by a later sender that appears after them in canonical order.
    const LogPParams params{};
    const std::uint32_t P = 3;
    std::vector<double> ready{0.0, 100.0, 0.0};
    auto messages = dense_messages(P);
    schedule_arrivals(messages, P, ready, params,
                      CommSchedule::SerializedAllToAll);
    double wire_free = 0;
    for (const InFlightMessage& m : messages) {
        const double start = std::max(wire_free, ready[m.from]);
        ASSERT_DOUBLE_EQ(m.arrive, start + params.message_time(m.bytes));
        wire_free = m.arrive;
    }
    // The first canonical message is from rank 0, which is ready at t=0.
    EXPECT_LT(messages.front().arrive, 1.0);
}

TEST(ScheduleArrivalsDeath, OutOfRangeRanksDie) {
    const LogPParams params{};
    std::vector<double> ready(2, 0.0);
    std::vector<InFlightMessage> bad{{5, 0, 100, 0}};
    EXPECT_DEATH(
        schedule_arrivals(bad, 2, ready, params, CommSchedule::Pipelined), "");
    std::vector<InFlightMessage> self{{1, 1, 100, 0}};
    EXPECT_DEATH(
        schedule_arrivals(self, 2, ready, params, CommSchedule::Pipelined), "");
}

TEST(ScheduleArrivalsDeath, HostileReadyTimesDie) {
    // Arrival times are contract-checked where they are produced: a NaN,
    // infinite or negative arrival would silently reorder the deliveries
    // sorted by it, so a hostile sender ready time dies instead.
    const auto arrive_with_ready = [](double ready0) {
        std::vector<InFlightMessage> messages{{0, 1, 100, 0}};
        const std::vector<double> ready{ready0, 0.0};
        schedule_arrivals(messages, 2, ready, LogPParams{},
                          CommSchedule::Pipelined);
    };
    EXPECT_DEATH(arrive_with_ready(std::nan("")), "not finite");
    EXPECT_DEATH(arrive_with_ready(std::numeric_limits<double>::infinity()),
                 "not finite");
    EXPECT_DEATH(arrive_with_ready(-std::numeric_limits<double>::infinity()),
                 "not finite");
    EXPECT_DEATH(arrive_with_ready(-1.0), "negative");
}

}  // namespace
}  // namespace aa
