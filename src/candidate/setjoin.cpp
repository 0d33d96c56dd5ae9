#include "candidate/setjoin.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "candidate/blocking.h"
#include "common/error.h"
#include "simd/simd.h"

namespace sybiltd::candidate {

namespace {

// Tasks of A to probe: an edge needs T > (2/3)|A| (see setjoin.h).
std::size_t probe_prefix(std::size_t size) { return size - (2 * size) / 3; }
// Tasks of B to index: against any later |A| >= |B|, T > (4/5)|B|.
std::size_t index_prefix(std::size_t size) { return size - (4 * size) / 5; }

std::size_t intersection_size(const std::vector<std::uint32_t>& a,
                              const std::vector<std::uint32_t>& b) {
  std::size_t count = 0;
  for (std::size_t i = 0, j = 0; i < a.size() && j < b.size();) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

}  // namespace

std::vector<std::uint64_t> sparse_affinity_edges(
    const std::vector<std::vector<std::uint32_t>>& task_sets,
    const std::function<bool(std::size_t both, std::size_t alone)>& is_edge,
    SetJoinStats* stats) {
  const std::size_t n = task_sets.size();
  SYBILTD_CHECK(n < (1ull << 32), "set join packs account ids into 32 bits");
  SetJoinStats local;
  local.accounts = n;
  local.exhaustive = true;
  std::vector<std::uint64_t> edges;

  // Each set's one-word row: bit t mod 64 for every task t.  With every
  // task id below 64 it is the exact bitset.
  std::size_t task_count = 0;
  std::vector<std::uint64_t> fold(n, 0);
  for (std::size_t a = 0; a < n; ++a) {
    for (const std::uint32_t t : task_sets[a]) {
      fold[a] |= std::uint64_t{1} << (t % 64);
    }
    if (!task_sets[a].empty()) {
      task_count = std::max<std::size_t>(task_count, task_sets[a].back() + 1);
    }
  }

  // Tier 1: collapse identical task sets behind their smallest account id.
  // Sorting by (row, set, id) puts each group in one ascending run.
  std::vector<std::uint32_t> by_set(n);
  std::iota(by_set.begin(), by_set.end(), 0u);
  std::sort(by_set.begin(), by_set.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (fold[a] != fold[b]) return fold[a] < fold[b];
              if (task_sets[a] != task_sets[b]) {
                return task_sets[a] < task_sets[b];
              }
              return a < b;
            });
  std::vector<std::uint32_t> reps;  // non-empty distinct sets only
  for (std::size_t begin = 0; begin < n;) {
    const std::uint32_t rep = by_set[begin];
    std::size_t end = begin + 1;
    while (end < n && task_sets[by_set[end]] == task_sets[rep]) ++end;
    if (end - begin > 1) {
      local.collapsed += end - begin - 1;
      // Identical sets: T = |set|, L = 0 for every within-group pair; one
      // check decides them all, and a star keeps the component connected.
      if (is_edge(task_sets[rep].size(), 0)) {
        for (std::size_t k = begin + 1; k < end; ++k) {
          edges.push_back(pack_pair(rep, by_set[k]));
        }
      }
    }
    if (!task_sets[rep].empty()) reps.push_back(rep);
    begin = end;
  }
  const std::size_t distinct = reps.size();
  local.distinct_sets = distinct;

  // Tier 2: the prefix join.  Processing order is ascending size, ties by
  // representative id; rows and sizes are laid out in that order.
  std::sort(reps.begin(), reps.end(), [&](std::uint32_t a, std::uint32_t b) {
    const std::size_t sa = task_sets[a].size();
    const std::size_t sb = task_sets[b].size();
    return sa != sb ? sa < sb : a < b;
  });
  std::vector<std::uint64_t> rows(distinct);
  std::vector<std::uint32_t> sizes(distinct);
  std::vector<std::uint32_t> freq(task_count, 0);
  for (std::size_t p = 0; p < distinct; ++p) {
    rows[p] = fold[reps[p]];
    sizes[p] = static_cast<std::uint32_t>(task_sets[reps[p]].size());
    for (const std::uint32_t t : task_sets[reps[p]]) ++freq[t];
  }
  // Rarest first: rank tasks by (frequency, id).
  std::vector<std::uint32_t> by_rank(task_count);
  std::iota(by_rank.begin(), by_rank.end(), 0u);
  std::sort(by_rank.begin(), by_rank.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return freq[a] != freq[b] ? freq[a] < freq[b] : a < b;
            });
  std::vector<std::uint32_t> rank(task_count);
  for (std::size_t r = 0; r < task_count; ++r) {
    rank[by_rank[r]] = static_cast<std::uint32_t>(r);
  }
  // Each set's probe prefix (ranks, rarest first) in CSR form; its index
  // prefix is the head of it.  The posting lists are CSR too, sized from
  // the index-prefix counts and filled in processing order, so each list
  // is size-ordered and [head, cursor) is its live run.
  std::vector<std::size_t> prefix_begin(distinct + 1, 0);
  for (std::size_t p = 0; p < distinct; ++p) {
    prefix_begin[p + 1] = prefix_begin[p] + probe_prefix(sizes[p]);
  }
  std::vector<std::uint32_t> prefix(prefix_begin[distinct]);
  std::vector<std::size_t> list_begin(task_count + 1, 0);
  std::vector<std::uint32_t> ranked;
  for (std::size_t p = 0; p < distinct; ++p) {
    ranked.clear();
    for (const std::uint32_t t : task_sets[reps[p]]) ranked.push_back(rank[t]);
    const auto keep = static_cast<std::ptrdiff_t>(probe_prefix(sizes[p]));
    std::partial_sort(ranked.begin(), ranked.begin() + keep, ranked.end());
    std::copy(ranked.begin(), ranked.begin() + keep,
              prefix.begin() + static_cast<std::ptrdiff_t>(prefix_begin[p]));
    for (std::size_t k = 0; k < index_prefix(sizes[p]); ++k) {
      ++list_begin[ranked[k] + 1];
    }
  }
  std::partial_sum(list_begin.begin(), list_begin.end(), list_begin.begin());
  std::vector<std::uint32_t> postings(list_begin[task_count]);
  std::vector<std::size_t> head(list_begin.begin(), list_begin.end() - 1);
  std::vector<std::size_t> cursor = head;
  std::vector<std::uint32_t> hits(distinct);
  const simd::KernelTable& kernels = simd::kernels();
  for (std::size_t p = 0; p < distinct; ++p) {
    const std::uint64_t size_a = sizes[p];
    // T <= popcount(row_A & row_B) + excess_A, where excess_A counts A's
    // tasks beyond the first in each bit (zero when all ids are below 64).
    // An edge therefore needs 5 popcount > 2(bound_A + |B|) with
    // bound_A = |A| - ceil(5 excess_A / 2); a negative bound filters
    // nothing, and every entry goes to the exact check.
    const std::uint64_t excess =
        size_a - static_cast<std::uint64_t>(std::popcount(rows[p]));
    const std::uint64_t slack = (5 * excess + 1) / 2;
    const std::uint32_t* own = prefix.data() + prefix_begin[p];
    for (std::size_t k = 0; k < probe_prefix(size_a); ++k) {
      const std::uint32_t r = own[k];
      // Size filter 3|B| > 2|A|: |A| never shrinks, so the head only
      // moves forward.
      std::size_t& h = head[r];
      while (h < cursor[r] && 3 * std::uint64_t{sizes[postings[h]]} <=
                                  2 * size_a) {
        ++h;
      }
      const std::size_t run = cursor[r] - h;
      local.candidates += run;
      std::size_t kept = run;
      if (slack <= size_a) {
        kept = kernels.set_join_verify(
            &rows[p], 1, static_cast<std::uint32_t>(size_a - slack),
            rows.data(), sizes.data(), postings.data() + h, run, hits.data());
      } else {
        std::copy_n(postings.data() + h, run, hits.data());
      }
      for (std::size_t i = 0; i < kept; ++i) {
        const std::uint32_t q = hits[i];
        const std::size_t both =
            intersection_size(task_sets[reps[p]], task_sets[reps[q]]);
        if (is_edge(both, size_a + sizes[q] - 2 * both)) {
          edges.push_back(pack_pair(std::min(reps[p], reps[q]),
                                    std::max(reps[p], reps[q])));
        }
      }
    }
    for (std::size_t k = 0; k < index_prefix(size_a); ++k) {
      postings[cursor[own[k]]++] = static_cast<std::uint32_t>(p);
    }
  }
  // A pair sharing several probed lists was found once per list.
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  local.edges = edges.size();
  if (stats != nullptr) *stats = local;
  return edges;
}

}  // namespace sybiltd::candidate
