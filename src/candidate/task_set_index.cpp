#include "candidate/task_set_index.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/error.h"
#include "simd/simd.h"

namespace sybiltd::candidate {

namespace {

// p(s) = s - floor(2s/3) = ceil(s/3): the probe prefix of an s-task set.
constexpr std::size_t prefix_length(std::size_t size) {
  return size - (2 * size) / 3;
}

}  // namespace

TaskSetIndex::TaskSetIndex(std::size_t task_count)
    : task_count_(task_count),
      words_((task_count + 63) / 64),
      postings_(task_count) {
  SYBILTD_CHECK(task_count_ > 0, "task-set index needs at least one task");
}

void TaskSetIndex::resize(std::size_t accounts) {
  SYBILTD_CHECK(accounts >= sizes_.size(), "task-set index cannot shrink");
  SYBILTD_CHECK(accounts <= std::numeric_limits<std::uint32_t>::max(),
                "task-set index stores account ids in 32 bits");
  bits_.resize(accounts * words_, 0);
  sizes_.resize(accounts, 0);
  last_.resize(accounts, 0);
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

std::size_t TaskSetIndex::next_task(std::size_t account,
                                    std::size_t task) const {
  const std::uint64_t* r = row(account);
  std::size_t w = task >> 6;
  std::uint64_t bits = r[w] & ((~std::uint64_t{0} << (task & 63)) << 1);
  while (bits == 0) bits = r[++w];
  return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
}

std::size_t TaskSetIndex::prev_task(std::size_t account,
                                    std::size_t task) const {
  const std::uint64_t* r = row(account);
  std::size_t w = task >> 6;
  std::uint64_t bits = r[w] & ((std::uint64_t{1} << (task & 63)) - 1);
  while (bits == 0) bits = r[--w];
  return w * 64 + 63 - static_cast<std::size_t>(std::countl_zero(bits));
}

void TaskSetIndex::post(std::size_t task, std::size_t account) {
  std::vector<std::uint32_t>& list = postings_[task];
  const auto id = static_cast<std::uint32_t>(account);
  list.insert(std::lower_bound(list.begin(), list.end(), id), id);
}

void TaskSetIndex::unpost(std::size_t task, std::size_t account) {
  std::vector<std::uint32_t>& list = postings_[task];
  const auto it = std::lower_bound(list.begin(), list.end(),
                                   static_cast<std::uint32_t>(account));
  SYBILTD_ASSERT(it != list.end() && *it == account);
  list.erase(it);
}

// The prefix before and after a mutation differ by at most one task in and
// one out: p(s) and p(s +- 1) differ by at most one, and the sets differ
// only in `task`.  last_ locates the boundary.
void TaskSetIndex::insert(std::size_t account, std::size_t task) {
  SYBILTD_ASSERT(account < sizes_.size() && task < task_count_ &&
                 !contains(account, task));
  row(account)[task >> 6] |= std::uint64_t{1} << (task & 63);
  const std::size_t size = sizes_[account]++;
  const bool grows = prefix_length(size + 1) > prefix_length(size);
  const std::size_t last = last_[account];
  if (size == 0 || task < last) {
    // `task` enters; an unchanged length pushes the old last task out.
    post(task, account);
    if (size == 0) {
      last_[account] = static_cast<std::uint32_t>(task);
    } else if (!grows) {
      unpost(last, account);
      last_[account] = static_cast<std::uint32_t>(prev_task(account, last));
    }
  } else if (grows) {
    // Past the boundary: the prefix takes the next task, `task` or earlier.
    const std::size_t next = next_task(account, last);
    post(next, account);
    last_[account] = static_cast<std::uint32_t>(next);
  }
}

void TaskSetIndex::erase(std::size_t account, std::size_t task) {
  SYBILTD_ASSERT(account < sizes_.size() && task < task_count_ &&
                 contains(account, task));
  row(account)[task >> 6] &= ~(std::uint64_t{1} << (task & 63));
  const std::size_t size = sizes_[account]--;
  const bool shrinks = prefix_length(size - 1) < prefix_length(size);
  const std::size_t last = last_[account];
  if (task > last) {
    // Outside the prefix: a shorter prefix drops its last task.
    if (shrinks) {
      unpost(last, account);
      last_[account] = static_cast<std::uint32_t>(prev_task(account, last));
    }
    return;
  }
  unpost(task, account);
  if (!shrinks) {
    // An unchanged length takes the task after the old boundary.
    const std::size_t next = next_task(account, last);
    post(next, account);
    last_[account] = static_cast<std::uint32_t>(next);
  } else if (task == last && size > 1) {
    last_[account] = static_cast<std::uint32_t>(prev_task(account, last));
  }
}

std::size_t TaskSetIndex::posting_entries() const {
  std::size_t total = 0;
  for (const std::vector<std::uint32_t>& list : postings_) total += list.size();
  return total;
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
                             std::vector<std::uint32_t>& out) {
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
  // rho >= 0: every neighbour shares a task of a's prefix and has it in
  // its own prefix, so it is on that task's list.
  std::size_t prefix = prefix_length(sizes_[a]);
  const std::uint64_t* ra = row(a);
  const simd::KernelTable& kernels = simd::kernels();
  for (std::size_t w = 0; w < words_ && prefix > 0; ++w) {
    for (std::uint64_t bits = ra[w]; bits != 0 && prefix > 0;
         bits &= bits - 1, --prefix) {
      const std::size_t task =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      // The kernel keeps T > 2L (necessary at rho >= 0) straight into `out`.
      const std::vector<std::uint32_t>& list = postings_[task];
      const std::size_t at = out.size();
      out.resize(at + list.size());
      out.resize(at + kernels.set_join_verify(
                          ra, words_, sizes_[a], bits_.data(), sizes_.data(),
                          list.data(), list.size(), out.data() + at));
      entries_verified_ += list.size();
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
