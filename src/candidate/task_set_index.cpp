#include "candidate/task_set_index.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/error.h"
#include "simd/simd.h"

namespace sybiltd::candidate {

namespace {

// Garbage entries a posting list may carry beyond its live count before it
// is compacted; keeps tiny lists from compacting on every erase.
constexpr std::size_t kCompactionSlack = 16;

}  // namespace

TaskSetIndex::TaskSetIndex(std::size_t task_count)
    : task_count_(task_count),
      words_((task_count + 63) / 64),
      postings_(task_count),
      live_(task_count, 0) {
  SYBILTD_CHECK(task_count_ > 0, "task-set index needs at least one task");
}

void TaskSetIndex::resize(std::size_t accounts) {
  SYBILTD_CHECK(accounts >= sizes_.size(), "task-set index cannot shrink");
  SYBILTD_CHECK(accounts <= std::numeric_limits<std::uint32_t>::max(),
                "task-set index stores account ids in 32 bits");
  bits_.resize(accounts * words_, 0);
  sizes_.resize(accounts, 0);
  kept_.resize(accounts, 0);
}

std::size_t TaskSetIndex::both(std::size_t a, std::size_t b) const {
  const std::uint64_t* ra = row(a);
  const std::uint64_t* rb = row(b);
  std::size_t count = 0;
  for (std::size_t w = 0; w < words_; ++w) {
    count += static_cast<std::size_t>(std::popcount(ra[w] & rb[w]));
  }
  return count;
}

void TaskSetIndex::insert(std::size_t account, std::size_t task) {
  SYBILTD_ASSERT(account < sizes_.size() && task < task_count_ &&
                 !contains(account, task));
  row(account)[task >> 6] |= std::uint64_t{1} << (task & 63);
  ++sizes_[account];
  ++live_[task];
  postings_[task].push_back(static_cast<std::uint32_t>(account));
}

void TaskSetIndex::erase(std::size_t account, std::size_t task) {
  SYBILTD_ASSERT(account < sizes_.size() && task < task_count_ &&
                 contains(account, task));
  row(account)[task >> 6] &= ~(std::uint64_t{1} << (task & 63));
  --sizes_[account];
  --live_[task];
  // Garbage only grows here, so compaction runs after at least
  // live + slack erases and costs O(live + garbage): O(1) amortised.
  const std::size_t live = live_[task];
  if (postings_[task].size() > 2 * live + kCompactionSlack) compact(task);
}

void TaskSetIndex::compact(std::size_t task) {
  std::vector<std::uint32_t>& list = postings_[task];
  std::size_t kept = 0;
  for (const std::uint32_t b : list) {
    if (contains(b, task) && !kept_[b]) {
      kept_[b] = 1;
      list[kept++] = b;
    }
  }
  list.resize(kept);
  for (const std::uint32_t b : list) kept_[b] = 0;
  SYBILTD_ASSERT(kept == live_[task]);
}

bool TaskSetIndex::is_edge(std::size_t a, std::size_t b, double rho) const {
  const std::size_t t = both(a, b);
  const std::size_t l = sizes_[a] + sizes_[b] - 2 * t;
  // Eq. (6), the same expression as core::AgTs::affinity so both decide
  // every pair identically.
  const double both_d = static_cast<double>(t);
  const double alone_d = static_cast<double>(l);
  const double m = static_cast<double>(task_count_);
  return (both_d - 2.0 * alone_d) * (both_d + alone_d) / m > rho;
}

void TaskSetIndex::neighbors(std::size_t a, double rho,
                             std::vector<std::uint32_t>& out) const {
  SYBILTD_ASSERT(a < sizes_.size());
  out.clear();
  const std::size_t n = sizes_.size();
  if (rho < 0.0) {
    for (std::size_t b = 0; b < n; ++b) {
      if (b != a && is_edge(a, b, rho)) {
        out.push_back(static_cast<std::uint32_t>(b));
      }
    }
    return;
  }
  // rho >= 0 needs T > 2L >= 2(|A| - T), so T > (2/3)|A|: a shared task
  // must lie among any |A| - floor(2|A|/3) of a's tasks.
  const std::size_t size_a = sizes_[a];
  std::size_t prefix = size_a - (2 * size_a) / 3;
  const std::uint64_t* ra = row(a);
  const simd::KernelTable& kernels = simd::kernels();
  for (std::size_t w = 0; w < words_ && prefix > 0; ++w) {
    for (std::uint64_t bits = ra[w]; bits != 0 && prefix > 0;
         bits &= bits - 1, --prefix) {
      const std::size_t task =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      // Exact verification of every entry, stale ones included: the kernel
      // keeps T > 2L (necessary at rho >= 0) straight into `out`.
      const std::vector<std::uint32_t>& list = postings_[task];
      const std::size_t at = out.size();
      out.resize(at + list.size());
      out.resize(at + kernels.set_join_verify(
                          ra, words_, sizes_[a], bits_.data(), sizes_.data(),
                          list.data(), list.size(), out.data() + at));
    }
  }
  // A neighbour sharing several prefix tasks was found once per task; a
  // itself passes T > 2L; the Eq. (6) arithmetic decides the rest.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  std::erase_if(out, [&](std::uint32_t b) {
    return b == a || !is_edge(a, b, rho);
  });
}

}  // namespace sybiltd::candidate
