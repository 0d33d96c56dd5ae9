// Exact, incremental task-set index for streaming AG-TS (Eq. 6): the
// pipeline's answer to "which accounts does `a` share an affinity edge
// with?" after `a`'s task set changed.
//
// Layout.  Each account owns a flat row of ceil(m / 64) bitset words (its
// task set T_a) and a count |T_a|; each task owns a posting list of the
// accounts that did it.  For any pair, T = popcount(T_a & T_b) and
// L = |T_a| + |T_b| - 2T, so Eq. (6) is evaluated exactly from the rows —
// nothing per pair is stored, and memory is linear in accounts plus live
// memberships.
//
// Posting lists are maintained lazily: erase() only clears the bit, so an
// erased (or erased and re-inserted) account may leave a stale or
// duplicate entry behind.  A list is compacted once its garbage outnumbers
// its live entries, which keeps insert() and erase() O(1) amortised and
// every list within twice its live length.
//
// neighbors(a, rho) returns a's Eq. (6) edges {b != a : A(a,b) > rho}:
//   * rho >= 0 — prefix filtering, the same lemma as the batch join in
//     setjoin.h (docs/GROUPING.md).  An edge needs T > 2L >= 2(|T_a| - T),
//     i.e. T > (2/3)|T_a|, so at most |T_a| - floor(2|T_a|/3) - 1 of a's
//     tasks are unshared and any |T_a| - floor(2|T_a|/3) of them contain
//     a shared one.  Every list holds every account that has its task, so
//     probing the lists of a's first that-many tasks surfaces every
//     neighbour.  Each list is one simd::KernelTable::set_join_verify
//     dispatch, the batch join's kernel: it keeps the entries with
//     5T > 2(|T_a| + |T_b|), i.e. T > 2L, computed from the current rows,
//     so a stale entry is judged by its account's present set.  (T > 2L
//     subsumes the size filter min(|T_a|, |T_b|) > 2 | |T_a| - |T_b| |.)
//     The few survivors get the exact Eq. (6) test.
//   * rho < 0 — the necessity argument fails (even disjoint sets can clear
//     a negative threshold), so every account is verified.
//
// Not synchronised: callers serialise mutations against every other call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sybiltd::candidate {

class TaskSetIndex {
 public:
  explicit TaskSetIndex(std::size_t task_count);

  // Grow to `accounts` accounts; new accounts start with empty task sets.
  void resize(std::size_t accounts);

  bool contains(std::size_t account, std::size_t task) const {
    return (row(account)[task >> 6] >> (task & 63)) & 1u;
  }
  // |T_a|.
  std::size_t size(std::size_t account) const { return sizes_[account]; }
  // T = |T_a ∩ T_b| and L = |T_a Δ T_b|.
  std::size_t both(std::size_t a, std::size_t b) const;
  std::size_t alone(std::size_t a, std::size_t b) const {
    return sizes_[a] + sizes_[b] - 2 * both(a, b);
  }

  // Add / remove one membership; the account must be in range and the
  // membership absent / present respectively.
  void insert(std::size_t account, std::size_t task);
  void erase(std::size_t account, std::size_t task);

  // a's Eq. (6) neighbours {b != a : A(a,b) > rho}, ascending, into `out`
  // (cleared first).
  void neighbors(std::size_t a, double rho,
                 std::vector<std::uint32_t>& out) const;

 private:
  const std::uint64_t* row(std::size_t account) const {
    return bits_.data() + account * words_;
  }
  std::uint64_t* row(std::size_t account) {
    return bits_.data() + account * words_;
  }
  // Eq. (6) edge test for a pair, exact.
  bool is_edge(std::size_t a, std::size_t b, double rho) const;
  // Drop stale and duplicate entries from one posting list.
  void compact(std::size_t task);

  std::size_t task_count_;
  std::size_t words_;                  // bitset words per account
  std::vector<std::uint64_t> bits_;    // account-major task bitsets
  std::vector<std::uint32_t> sizes_;   // |T_a| per account
  std::vector<std::vector<std::uint32_t>> postings_;  // accounts per task
  std::vector<std::uint32_t> live_;    // members per task (exact)
  std::vector<std::uint8_t> kept_;     // compact() scratch; zero otherwise
};

}  // namespace sybiltd::candidate
