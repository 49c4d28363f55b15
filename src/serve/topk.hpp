// Top-k closeness over result snapshots: a one-shot selection plus an
// incrementally maintained ranking that is *patched* between consecutive
// snapshots (using the snapshot's changed-vertex list) and only rebuilt when
// a patch cannot be proven exact.
//
// Ordering is the library-wide ranking order (closeness_ranking): score
// descending, vertex id ascending on ties — a strict total order, since ids
// are unique. `topk_from_snapshot` is therefore always the k-prefix of
// closeness_ranking over the same scores, and the incremental tracker is
// pinned to produce bit-identical entries (tests enforce it).
//
// Why patching is sound: between consecutive snapshots, every vertex whose
// (closeness, reachable) changed appears in `ResultSnapshot::changed`. A
// vertex absent from that list kept its exact score bits, and — because the
// previous ranking prefix was correct — sorted strictly after the previous
// last maintained entry. Re-ranking the union {previous entries, changed
// vertices} with fresh scores is thus exact *unless* the new last entry is
// weaker than the previous last entry was: only then could an unchanged
// outsider deserve a slot, and the tracker falls back to a full rebuild
// (counted, observable). That threshold check is what keeps score
// *decreases* (deletions, weight raises) exact — a demoted hub either stays
// rankable from the maintained set or triggers the rebuild.
//
// To keep decreases cheap, the tracker maintains a *reserve*: the exact top
// R = min(2k, n) prefix of the ranking, of which entries() is the k-prefix.
// A demotion that drops a hub out of the top k but not out of the top R is
// then absorbed as a patch (the demoted entry is evicted from the served
// prefix and the next reserve entry promoted); only a demotion past the
// R-th entry — where unchanged outsiders could overtake — forces the O(n)
// rebuild.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "serve/snapshot.hpp"
#include "shard/ownership.hpp"

namespace aa {

struct TopKEntry {
    VertexId vertex{0};
    Weight score{0};

    friend bool operator==(const TopKEntry&, const TopKEntry&) = default;
};

/// True if `a` outranks `b`: higher score, ties broken by smaller id.
inline bool topk_outranks(const TopKEntry& a, const TopKEntry& b) {
    if (a.score != b.score) {
        return a.score > b.score;
    }
    return a.vertex < b.vertex;
}

/// The top min(k, n) vertices of a snapshot by full selection — the k-prefix
/// of closeness_ranking(snapshot.scores), scores included.
std::vector<TopKEntry> topk_from_snapshot(const ResultSnapshot& snapshot,
                                          std::size_t k);

/// Selection restricted to `members` (any order, unique): the k-prefix of the
/// ranking over just those vertices. The per-shard trackers rebuild through
/// this, and the global k-prefix is contained in the union of per-shard
/// k-prefixes (the merge-at-read argument, see topk_sharded).
std::vector<TopKEntry> topk_from_subset(const ResultSnapshot& snapshot,
                                        std::span<const VertexId> members,
                                        std::size_t k);

/// Shard-decomposed selection: one partial top-k per logical shard, merged at
/// read. Bit-identical to topk_from_snapshot (pinned by tests): the ranking
/// is a strict total order and the global k-prefix is contained in the union
/// of the per-shard k-prefixes. The decomposition is the serve layer's
/// sharding hook — each partial is computable by (and cacheable on) the
/// shard's owning rank, and a migration invalidates only the moved shard's
/// partial. Snapshot vertices the ownership map has not registered yet (a
/// snapshot can outrun the map across a growth batch) are pooled in one
/// extra pseudo-shard so no candidate is ever dropped.
std::vector<TopKEntry> topk_sharded(const ResultSnapshot& snapshot,
                                    const ShardOwnership& ownership,
                                    std::size_t k);

/// Maintains the top-k ranking across a stream of snapshots. Not thread-safe
/// by itself; QueryService serializes updates and hands readers immutable
/// copies.
class IncrementalTopK {
public:
    /// `rebuild_churn` bounds the patch path by churn fraction: when more
    /// than rebuild_churn * n tracked vertices changed in one snapshot, the
    /// O(n) rebuild is cheaper than sorting a candidate set of nearly n, so
    /// apply() rebuilds outright (entries are bit-identical either way —
    /// the threshold moves work, never results). 1.0 restores the historical
    /// always-try-to-patch behaviour; QueryService passes its
    /// kTopkRebuildChurn.
    explicit IncrementalTopK(std::size_t k, double rebuild_churn = 1.0);

    /// Advance to `snapshot`. Patches when the snapshot is the direct
    /// successor of the last one applied and the patch is provably exact;
    /// rebuilds otherwise. Entries afterwards are bit-identical to
    /// topk_from_snapshot(snapshot, k).
    void apply(const ResultSnapshot& snapshot);

    /// Advance over the fixed subset `members` (ascending, unique): the
    /// tracker maintains the top-k of just those vertices — the per-shard
    /// decomposition. `changed` must be the members whose scores changed in
    /// this snapshot (ascending; a subset of snapshot.changed). The patch /
    /// rebuild discipline and its soundness argument are the full-range
    /// ones with n = members.size(); the membership must not change between
    /// chained snapshots (call reset() when it does — the service resets on
    /// growth). Entries afterwards are bit-identical to
    /// topk_from_subset(snapshot, members, k).
    void apply_subset(const ResultSnapshot& snapshot,
                      std::span<const VertexId> members,
                      std::span<const VertexId> changed);

    /// Forget the maintained state (membership changed); the next apply is
    /// a rebuild.
    void reset();

    std::size_t k() const { return k_; }
    /// Version of the last snapshot applied (0 before the first).
    std::uint64_t version() const { return version_; }
    const std::vector<TopKEntry>& entries() const { return entries_; }
    /// The maintained exact ranking prefix (top min(2k, n)); entries() is
    /// its k-prefix. Exposed for tests and introspection.
    const std::vector<TopKEntry>& reserve() const { return reserve_; }

    /// Maintenance counters: how often apply() patched vs rebuilt.
    std::size_t patched() const { return patched_; }
    std::size_t rebuilt() const { return rebuilt_; }

private:
    /// Shared core of apply / apply_subset: `full` selects the whole
    /// snapshot; otherwise `members`/`changed` scope the tracked universe.
    void advance(const ResultSnapshot& snapshot, bool full,
                 std::span<const VertexId> members,
                 std::span<const VertexId> changed);

    std::size_t k_;
    double rebuild_churn_;
    std::uint64_t version_{0};
    /// Vertex count of the last snapshot applied: outsiders (vertices beyond
    /// reserve_) exist iff last_n_ > reserve_.size(), which is what decides
    /// whether a patch needs the threshold check at all.
    std::size_t last_n_{0};
    std::vector<TopKEntry> entries_;
    std::vector<TopKEntry> reserve_;
    std::size_t patched_{0};
    std::size_t rebuilt_{0};
};

}  // namespace aa
