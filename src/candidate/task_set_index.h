// Exact, incremental task-set index for streaming AG-TS (Eq. 6): the
// pipeline's answer to "which accounts does `a` share an affinity edge
// with?" after `a`'s task set changed.
//
// Layout.  Each account owns a flat row of ceil(m / 64) bitset words (its
// task set T_a) and a count |T_a|.  For any pair, T = popcount(T_a & T_b)
// and L = |T_a| + |T_b| - 2T, so Eq. (6) is evaluated exactly from the
// rows — nothing per pair is stored, and memory is linear in accounts plus
// live memberships.
//
// Posting lists are exact and prefix-only.  An account's probe prefix is
// its first p(|T_a|) = |T_a| - floor(2|T_a|/3) tasks in task-id order, and
// the list of task t holds exactly the accounts whose prefix contains t,
// sorted by account id: no stale or duplicate entries, and the lists are a
// function of the task sets alone, whatever insert/erase order built them.
// p(s) = ceil(s/3) moves by at most one per mutation, so insert() and
// erase() move at most one task into and one out of the account's prefix;
// each move is a binary-search insert or erase into one list, with the
// prefix's last task kept per account so no row is rescanned.
//
// neighbors(a, rho) returns a's Eq. (6) edges {b != a : A(a,b) > rho}:
//   * rho >= 0 — prefix filtering, the same lemma as the batch join in
//     setjoin.h (docs/GROUPING.md), applied to both sides.  An edge needs
//     T > 2L >= 2(|T_a| - T), i.e. T > (2/3)|T_a|, so at most
//     p(|T_a|) - 1 of a's tasks are unshared and the first shared task in
//     id order lies in a's prefix; by symmetry (T > (2/3)|T_b|) it also
//     lies in b's prefix, so b is on that task's list.  Probing the lists
//     of a's prefix therefore surfaces every neighbour.  Each list is one
//     simd::KernelTable::set_join_verify dispatch, the batch join's kernel:
//     it keeps the entries with 5T > 2(|T_a| + |T_b|), i.e. T > 2L.  (T >
//     2L subsumes the size filter min(|T_a|, |T_b|) > 2 | |T_a| - |T_b| |.)
//     The few survivors get the exact Eq. (6) test.  Task-id order is the
//     fixed global order both prefixes must share; an order by task
//     frequency would drift under churn and re-index every account.
//   * rho < 0 — the necessity argument fails (even disjoint sets can clear
//     a negative threshold), so every account is verified.
//
// Not synchronised: neighbors() also bumps the verify count, so callers
// serialise every call.
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
  void neighbors(std::size_t a, double rho, std::vector<std::uint32_t>& out);

  // Posting entries over all lists: sum over accounts of p(|T_a|).
  std::size_t posting_entries() const;
  // Posting entries neighbors() has handed to set_join_verify, cumulative.
  std::uint64_t entries_verified() const { return entries_verified_; }

 private:
  const std::uint64_t* row(std::size_t account) const {
    return bits_.data() + account * words_;
  }
  std::uint64_t* row(std::size_t account) {
    return bits_.data() + account * words_;
  }
  // The account's nearest task above / below `task`, which must exist.
  std::size_t next_task(std::size_t account, std::size_t task) const;
  std::size_t prev_task(std::size_t account, std::size_t task) const;
  // Enter / leave task's posting list, keeping it sorted.
  void post(std::size_t task, std::size_t account);
  void unpost(std::size_t task, std::size_t account);
  // Eq. (6) edge test for a pair, exact.
  bool is_edge(std::size_t a, std::size_t b, double rho) const;

  std::size_t task_count_;
  std::size_t words_;                  // bitset words per account
  std::vector<std::uint64_t> bits_;    // account-major task bitsets
  std::vector<std::uint32_t> sizes_;   // |T_a| per account
  std::vector<std::uint32_t> last_;    // last prefix task; any if |T_a| = 0
  std::vector<std::vector<std::uint32_t>> postings_;  // prefix accounts
  std::uint64_t entries_verified_ = 0;
};

}  // namespace sybiltd::candidate
